// Incremental cone-limited aged STA (ISSUE 7) — the tier-1 cross-check:
// every IncrementalSta answer must be bit-identical to a from-scratch
// Sta::run_truncated over the same netlist, truncation set and scenario,
// whatever the query history (monotone sweeps, scenario switches,
// non-monotone resets).
#include "sta/sta.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "synth/components.hpp"

namespace aapx {
namespace {

class IncrementalStaTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  BtiModel model_;

  Netlist make(ComponentKind kind, int width,
               AdderArch arch = AdderArch::cla4,
               MultArch mult = MultArch::array) const {
    return make_component(lib_, {kind, width, 0, arch, mult});
  }

  /// The low `tb` bits of both operand buses — the sweep's truncation set.
  static std::vector<NetId> low_bits(const Netlist& nl, int tb) {
    std::vector<NetId> pis;
    for (const char* bus : {"a", "b"}) {
      const std::vector<NetId>& nets = nl.input_bus(bus);
      for (int i = 0; i < tb && i < static_cast<int>(nets.size()); ++i) {
        pis.push_back(nets[static_cast<std::size_t>(i)]);
      }
    }
    return pis;
  }
};

TEST_F(IncrementalStaTest, RunTruncatedEmptySetMatchesRunFresh) {
  const Netlist nl = make(ComponentKind::adder, 12);
  const Sta sta(nl);
  const StaResult full = sta.run_fresh();
  const StaResult bound = sta.run_truncated(nullptr, nullptr, {});
  EXPECT_EQ(bound.max_delay, full.max_delay);
  EXPECT_EQ(bound.arrival_rise, full.arrival_rise);
  EXPECT_EQ(bound.arrival_fall, full.arrival_fall);
}

TEST_F(IncrementalStaTest, RunTruncatedRejectsNonInputs) {
  const Netlist nl = make(ComponentKind::adder, 8);
  const Sta sta(nl);
  EXPECT_THROW(sta.run_truncated(nullptr, nullptr, {nl.const0()}),
               std::invalid_argument);
  EXPECT_THROW(sta.run_truncated(nullptr, nullptr, {nl.outputs()[0]}),
               std::invalid_argument);
}

TEST_F(IncrementalStaTest, MonotoneSweepMatchesFullRecompute) {
  for (const ComponentKind kind :
       {ComponentKind::adder, ComponentKind::multiplier}) {
    const Netlist nl = make(kind, kind == ComponentKind::adder ? 16 : 10);
    const Sta sta(nl);
    const DegradationAwareLibrary aged(lib_, model_, 10.0);
    const StressProfile stress =
        StressProfile::uniform(StressMode::worst, nl.num_gates());

    IncrementalSta inc_fresh(nl);
    IncrementalSta inc_aged(nl);
    double prev_fresh = std::numeric_limits<double>::infinity();
    for (int tb = 0; tb < 8; ++tb) {
      const std::vector<NetId> trunc = low_bits(nl, tb);
      const double fresh = inc_fresh.max_delay(nullptr, nullptr, trunc);
      EXPECT_EQ(fresh, sta.run_truncated(nullptr, nullptr, trunc).max_delay)
          << to_string(kind) << " fresh tb=" << tb;
      const double worst = inc_aged.max_delay(&aged, &stress, trunc);
      EXPECT_EQ(worst, sta.run_truncated(&aged, &stress, trunc).max_delay)
          << to_string(kind) << " aged tb=" << tb;
      // Removing arrival sources can only relax the design.
      EXPECT_LE(fresh, prev_fresh);
      prev_fresh = fresh;
      if (tb > 0) {
        // Past the first (full) propagation the walk is cone-limited.
        EXPECT_LT(inc_aged.last_dirty_gates(), nl.num_gates());
      }
    }
  }
}

TEST_F(IncrementalStaTest, ScenarioSwitchAndNonMonotoneSetsStayExact) {
  const Netlist nl = make(ComponentKind::adder, 12, AdderArch::ripple);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 5.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::balanced, nl.num_gates());
  IncrementalSta inc(nl);
  // Interleaved scenarios and a shrinking set: every query that cannot be
  // served from the cached arrivals must fall back, never drift.
  for (const int tb : {0, 3, 1, 5, 5, 2}) {
    const std::vector<NetId> trunc = low_bits(nl, tb);
    EXPECT_EQ(inc.max_delay(nullptr, nullptr, trunc),
              sta.run_truncated(nullptr, nullptr, trunc).max_delay)
        << "fresh tb=" << tb;
    EXPECT_EQ(inc.max_delay(&aged, &stress, trunc),
              sta.run_truncated(&aged, &stress, trunc).max_delay)
        << "aged tb=" << tb;
  }
}

TEST_F(IncrementalStaTest, DirtyConeIsExactlyTheFanoutCone) {
  // Two disjoint inverter chains: truncating one chain's input must
  // re-propagate that chain's gates and nothing else.
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  NetId x = a;
  for (int i = 0; i < 5; ++i) x = nl.mk(LogicFn::kInv, x);
  NetId y = b;
  for (int i = 0; i < 3; ++i) y = nl.mk(LogicFn::kInv, y);
  nl.mark_output(x, "x");
  nl.mark_output(y, "y");

  IncrementalSta inc(nl);
  const double both = inc.max_delay(nullptr, nullptr, {});
  EXPECT_GT(both, 0.0);
  inc.max_delay(nullptr, nullptr, {b});
  EXPECT_EQ(inc.last_dirty_gates(), 3u);  // only b's chain
  const double only_a = inc.max_delay(nullptr, nullptr, {b, a});
  EXPECT_EQ(inc.last_dirty_gates(), 5u);  // then a's chain
  EXPECT_EQ(only_a, 0.0);                 // nothing arrives anywhere
}

TEST_F(IncrementalStaTest, RepeatQueryServedFromCachedArrivals) {
  const Netlist nl = make(ComponentKind::adder, 8);
  IncrementalSta inc(nl);
  const std::vector<NetId> trunc = low_bits(nl, 2);
  const double first = inc.max_delay(nullptr, nullptr, trunc);
  const double again = inc.max_delay(nullptr, nullptr, trunc);
  EXPECT_EQ(first, again);
  EXPECT_EQ(inc.last_dirty_gates(), 0u);
}

}  // namespace
}  // namespace aapx
