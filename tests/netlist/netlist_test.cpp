#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/persist.hpp"
#include "sta/sta.hpp"
#include "sta/variation.hpp"
#include "synth/components.hpp"
#include "util/parallel.hpp"

namespace aapx {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(NetlistTest, ConstantsExistFromConstruction) {
  const Netlist nl(lib_);
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_TRUE(nl.is_constant(nl.const0()));
  EXPECT_TRUE(nl.is_constant(nl.const1()));
  EXPECT_EQ(nl.driver(nl.const0()), kInvalidGate);
}

TEST_F(NetlistTest, AddInputAndBus) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.input_name(0), "a");
  EXPECT_FALSE(nl.is_constant(a));

  const auto bus = nl.add_input_bus("x", 4);
  EXPECT_EQ(bus.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.input_bus("x"), bus);
  EXPECT_TRUE(nl.has_input_bus("x"));
  EXPECT_FALSE(nl.has_input_bus("y"));
  EXPECT_THROW(nl.input_bus("y"), std::out_of_range);
}

TEST_F(NetlistTest, AddGateWiresReaders) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.mk(LogicFn::kAnd2, a, b);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.driver(y), 0u);
  ASSERT_EQ(nl.readers(a).size(), 1u);
  EXPECT_EQ(nl.readers(a)[0].gate, 0u);
  EXPECT_EQ(nl.readers(a)[0].pin, 0);
  EXPECT_EQ(nl.readers(b)[0].pin, 1);
}

TEST_F(NetlistTest, PinCountValidation) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const CellId and2 = lib_.smallest(LogicFn::kAnd2);
  const NetId one_input[] = {a};
  EXPECT_THROW(nl.add_gate(and2, one_input), std::invalid_argument);
}

TEST_F(NetlistTest, TopoOrderRespectsDependencies) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId u = nl.mk(LogicFn::kAnd2, a, b);
  const NetId v = nl.mk(LogicFn::kInv, u);
  const NetId w = nl.mk(LogicFn::kOr2, u, v);
  nl.mark_output(w, "w");
  const auto& order = nl.topo_order();
  ASSERT_EQ(order.size(), 3u);
  // Gate 0 (AND) before gate 1 (INV) before gate 2 (OR).
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[2]);
}

TEST_F(NetlistTest, NetLoadSumsPinCaps) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.mk(LogicFn::kAnd2, a, b);
  nl.mk(LogicFn::kInv, a);
  const Cell& and2 = lib_.cell(lib_.smallest(LogicFn::kAnd2));
  const Cell& inv = lib_.cell(lib_.smallest(LogicFn::kInv));
  EXPECT_NEAR(nl.net_load(a),
              and2.pin_cap + inv.pin_cap + 2 * Netlist::kWireCapPerFanout, 1e-12);
  EXPECT_NEAR(nl.net_load(b), and2.pin_cap + Netlist::kWireCapPerFanout, 1e-12);
}

TEST_F(NetlistTest, OutputBusRoundTrip) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y0 = nl.mk(LogicFn::kInv, a);
  const NetId y1 = nl.mk(LogicFn::kBuf, a);
  const NetId bus[] = {y0, y1};
  nl.mark_output_bus(bus, "y");
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.output_name(0), "y[0]");
  EXPECT_EQ(nl.output_bus("y")[1], y1);
}

TEST_F(NetlistTest, SetGateCellSwapsDriveOnly) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  nl.mk(LogicFn::kInv, a);
  const CellId inv_x4 = *lib_.find(LogicFn::kInv, 4);
  nl.set_gate_cell(0, inv_x4);
  EXPECT_EQ(nl.gate(0).cell, inv_x4);
  const CellId and2 = lib_.smallest(LogicFn::kAnd2);
  EXPECT_THROW(nl.set_gate_cell(0, and2), std::invalid_argument);
}

TEST_F(NetlistTest, GateCountedInputsMatchCell) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  nl.mk(LogicFn::kMaj3, a, b, c);
  EXPECT_EQ(nl.gate_num_inputs(0), 3);
}

TEST_F(NetlistTest, InvalidAccessThrows) {
  Netlist nl(lib_);
  EXPECT_THROW(nl.gate(0), std::out_of_range);
  EXPECT_THROW(nl.driver(99), std::out_of_range);
  EXPECT_THROW(nl.readers(99), std::out_of_range);
  EXPECT_THROW(nl.mark_output(99, "x"), std::out_of_range);
  EXPECT_THROW(nl.add_input_bus("b", 0), std::invalid_argument);
}

// --- concurrent const readers -----------------------------------------------
//
// topo_order() builds its cache on first use. A netlist decoded from a store
// record starts with an empty cache, so its first readers race to build it;
// each must still see exactly the serial answer (the published order is
// immutable and shared, never filled in place).

class DecodedNetlistConcurrencyTest : public ::testing::Test {
 protected:
  Netlist decode() const {
    return engine::decode_netlist_payload(payload_, lib_).netlist;
  }

  CellLibrary lib_ = make_nangate45_like();
  ComponentSpec spec_{ComponentKind::multiplier, 16, 0, AdderArch::cla4,
                      MultArch::array};
  std::string payload_ =
      engine::encode_netlist_payload(0, spec_, make_component(lib_, spec_));
};

TEST_F(DecodedNetlistConcurrencyTest, TopoOrderAndStaFromFourThreads) {
  const Netlist serial = decode();
  const std::vector<GateId> want_order = serial.topo_order();
  const StaResult want = Sta(serial).run_fresh();
  constexpr int kThreads = 4;
  for (int rep = 0; rep < 20; ++rep) {
    const Netlist nl = decode();
    std::atomic<int> waiting{kThreads};
    std::vector<std::vector<GateId>> orders(kThreads);
    std::vector<StaResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Start together so the first topo_order() calls overlap.
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        orders[t] = nl.topo_order();
        results[t] = Sta(nl).run_fresh();
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(orders[t], want_order) << "rep " << rep << " thread " << t;
      EXPECT_EQ(results[t].max_delay, want.max_delay);
      EXPECT_EQ(results[t].arrival_rise, want.arrival_rise);
      EXPECT_EQ(results[t].arrival_fall, want.arrival_fall);
    }
  }
}

TEST_F(DecodedNetlistConcurrencyTest, ZeroSigmaMonteCarloMatchesNominal) {
  // With both sigmas zero every die is the nominal netlist, and the dies'
  // longest-path analyses run on pool workers that all read the decoded
  // netlist's topo order for the first time together.
  struct ThreadsGuard {
    ThreadsGuard() { set_num_threads(4); }
    ~ThreadsGuard() { set_num_threads(0); }
  } guard;
  const double nominal = Sta(decode()).run_fresh().max_delay;
  VariationParams zero;
  zero.local_sigma = 0.0;
  zero.global_sigma = 0.0;
  for (int rep = 0; rep < 100; ++rep) {
    const Netlist nl = decode();
    const VariationResult res = MonteCarloSta(nl, zero).run_fresh(64);
    ASSERT_EQ(res.samples.size(), 64u);
    for (const double s : res.samples) {
      ASSERT_EQ(s, nominal) << "rep " << rep;
    }
  }
}

}  // namespace
}  // namespace aapx
