// Bit-identity pins for the synthesis kernels (structural hashing, the
// liveness-decided optimizer fixpoint, the per-function smallest-cell table).
// Each digest covers the persisted encoding (gates, cells, pin order, net
// ids, names, buses) of every component netlist of one kind over widths
// 9..32 at every truncation depth, for every adder/multiplier architecture
// and approximation technique the kind accepts. The constants were captured
// by running this code on the optimizer that confirmed each fixpoint with
// an extra full rebuild; any change to gate ids, cell choice or pin order
// moves them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cell/library.hpp"
#include "engine/context.hpp"
#include "engine/persist.hpp"
#include "synth/components.hpp"
#include "util/hash.hpp"

namespace aapx {
namespace {

std::vector<ComponentSpec> grid(ComponentKind kind) {
  std::vector<AdderArch> adders{AdderArch::cla4};
  std::vector<MultArch> mults{MultArch::array};
  std::vector<ApproxTechnique> techniques{ApproxTechnique::lsb_truncation};
  if (kind == ComponentKind::adder || kind == ComponentKind::mac) {
    adders = {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone};
  }
  if (kind == ComponentKind::multiplier || kind == ComponentKind::mac) {
    mults = {MultArch::array, MultArch::wallace};
    techniques.push_back(ApproxTechnique::pp_truncation);
  }
  if (kind == ComponentKind::adder) {
    techniques.push_back(ApproxTechnique::carry_window);
  }
  std::vector<ComponentSpec> specs;
  for (const AdderArch adder : adders) {
    for (const MultArch mult : mults) {
      for (const ApproxTechnique technique : techniques) {
        for (int width = 9; width <= 32; ++width) {
          for (int tb = 0; tb < width; ++tb) {
            specs.push_back({kind, width, tb, adder, mult, technique});
          }
        }
      }
    }
  }
  return specs;
}

std::uint64_t grid_digest(ComponentKind kind) {
  const CellLibrary lib = make_nangate45_like();
  const Context ctx;
  const std::vector<ComponentSpec> specs = grid(kind);
  // Synthesized across the pool (each index owns its slot), folded in order.
  std::vector<std::uint64_t> digests(specs.size());
  ctx.parallel_for(specs.size(), [&](std::size_t i) {
    const Netlist nl = make_component(ctx, lib, specs[i]);
    digests[i] =
        Hasher{}.str(engine::encode_netlist_payload(0, specs[i], nl)).digest();
  });
  Hasher h;
  for (const std::uint64_t d : digests) h.u64(d);
  return h.digest();
}

TEST(SynthGoldenDigest, Adders) {
  EXPECT_EQ(grid_digest(ComponentKind::adder), 0xf1f9501c6ab378d2ULL);
}

TEST(SynthGoldenDigest, Multipliers) {
  EXPECT_EQ(grid_digest(ComponentKind::multiplier), 0xd663f843cac56518ULL);
}

TEST(SynthGoldenDigest, Macs) {
  EXPECT_EQ(grid_digest(ComponentKind::mac), 0x9b81c6f4d6ca1a4dULL);
}

TEST(SynthGoldenDigest, Clamps) {
  EXPECT_EQ(grid_digest(ComponentKind::clamp), 0x6ad31fd41b48892cULL);
}

}  // namespace
}  // namespace aapx
