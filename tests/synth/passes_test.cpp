#include "synth/passes.hpp"

#include <gtest/gtest.h>

#include "engine/context.hpp"
#include "gatesim/funcsim.hpp"
#include "synth/arith.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class PassesTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

/// Checks functional equivalence of two netlists with identical interfaces
/// over random input vectors.
void expect_equivalent(const Netlist& a, const Netlist& b, int vectors,
                       std::uint64_t seed) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  FuncSim sa(a);
  FuncSim sb(b);
  Rng rng(seed);
  for (int v = 0; v < vectors; ++v) {
    for (std::size_t i = 0; i < a.inputs().size(); ++i) {
      const bool bit = rng.next_bool();
      sa.set_input(a.inputs()[i], bit);
      sb.set_input(b.inputs()[i], bit);
    }
    sa.eval();
    sb.eval();
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      ASSERT_EQ(sa.value(a.outputs()[o]), sb.value(b.outputs()[o]))
          << "output " << a.output_name(o) << " vector " << v;
    }
  }
}

TEST_F(PassesTest, ConstantGateFolds) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kAnd2, nl.const0(), a);
  nl.mark_output(y, "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 0u);
  EXPECT_EQ(res.netlist.outputs()[0], res.netlist.const0());
}

TEST_F(PassesTest, IdentitySimplifications) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  // AND2(a, 1) == a: output aliases the input, no gate needed.
  nl.mark_output(nl.mk(LogicFn::kAnd2, a, nl.const1()), "y_and");
  // OR2(a, 0) == a.
  nl.mark_output(nl.mk(LogicFn::kOr2, a, nl.const0()), "y_or");
  // XOR2(a, 0) == a.
  nl.mark_output(nl.mk(LogicFn::kXor2, a, nl.const0()), "y_xor");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 0u);
  for (const NetId out : res.netlist.outputs()) {
    EXPECT_EQ(out, res.netlist.inputs()[0]);
  }
}

TEST_F(PassesTest, InversionSimplifications) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  // NAND2(a, 1) == !a, XOR2(a, 1) == !a — both become a single shared INV.
  nl.mark_output(nl.mk(LogicFn::kNand2, a, nl.const1()), "y1");
  nl.mark_output(nl.mk(LogicFn::kXor2, a, nl.const1()), "y2");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 1u);  // CSE merges the two inverters
  expect_equivalent(nl, res.netlist, 4, 1);
}

TEST_F(PassesTest, ThreeInputPartialConstants) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  // MAJ3(a, b, 0) == AND2(a, b); MAJ3(a, b, 1) == OR2(a, b).
  nl.mark_output(nl.mk(LogicFn::kMaj3, a, b, nl.const0()), "maj0");
  nl.mark_output(nl.mk(LogicFn::kMaj3, a, b, nl.const1()), "maj1");
  // MUX2 with constant select: pins (a, b, sel).
  nl.mark_output(nl.mk(LogicFn::kMux2, a, b, nl.const0()), "mux0");
  nl.mark_output(nl.mk(LogicFn::kMux2, a, b, nl.const1()), "mux1");
  const OptimizeResult res = optimize(nl);
  expect_equivalent(nl, res.netlist, 8, 2);
  // maj0 -> AND2, maj1 -> OR2; mux selections collapse to aliases.
  EXPECT_EQ(res.netlist.num_gates(), 2u);
}

TEST_F(PassesTest, DeadGateElimination) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId used = nl.mk(LogicFn::kAnd2, a, b);
  nl.mk(LogicFn::kOr2, a, b);  // dead
  nl.mk(LogicFn::kXor2, a, b); // dead
  nl.mark_output(used, "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 1u);
  EXPECT_EQ(res.gates_removed, 2u);
}

TEST_F(PassesTest, CseMergesCommutativeDuplicates) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId u = nl.mk(LogicFn::kAnd2, a, b);
  const NetId v = nl.mk(LogicFn::kAnd2, b, a);  // same function, swapped pins
  nl.mark_output(nl.mk(LogicFn::kXor2, u, v), "y");  // == 0
  const OptimizeResult res = optimize(nl);
  // AND(a,b) merges with AND(b,a); XOR(x, x) is not folded by CSE alone,
  // but the two pins now alias, keeping the result functionally equal.
  expect_equivalent(nl, res.netlist, 8, 3);
  EXPECT_LE(res.netlist.num_gates(), 2u);
}

TEST_F(PassesTest, PreservesArithmeticFunction) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 8);
  const Word b = nl.add_input_bus("b", 8);
  nl.mark_output_bus(build_multiplier(nl, a, b, MultArch::array), "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_LT(res.netlist.num_gates(), nl.num_gates());
  expect_equivalent(nl, res.netlist, 300, 4);
}

TEST_F(PassesTest, PreservesBusGroupings) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 4);
  const Word b = nl.add_input_bus("b", 4);
  nl.mark_output_bus(build_adder(nl, a, b, nl.const0(), AdderArch::ripple), "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.input_bus("a").size(), 4u);
  EXPECT_EQ(res.netlist.output_bus("y").size(), 5u);
  EXPECT_EQ(res.netlist.input_name(0), "a[0]");
}

TEST_F(PassesTest, IdempotentOnOptimizedNetlist) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 6);
  const Word b = nl.add_input_bus("b", 6);
  nl.mark_output_bus(build_adder(nl, a, b, nl.const0(), AdderArch::cla4), "y");
  const OptimizeResult once = optimize(nl);
  const OptimizeResult twice = optimize(once.netlist);
  EXPECT_EQ(once.netlist.num_gates(), twice.netlist.num_gates());
  expect_equivalent(once.netlist, twice.netlist, 100, 5);
}

// optimize.passes counts rebuilds: one per optimize() call, plus one per
// extra rebuild that swept gates orphaned by constant folding. An exact,
// deterministic work counter over a fixed component set. The optimizer that
// confirmed every fixpoint with one more full rebuild counted 39 here (a
// confirming pass per call on top of the same rebuilds).
TEST_F(PassesTest, PassCounterCountsRebuildsOnly) {
  Context::Options opt;
  opt.threads = 1;
  const Context ctx(opt);
  for (const AdderArch arch :
       {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
    for (const int tb : {0, 4, 8}) {
      make_component(ctx, lib_,
                     {ComponentKind::adder, 16, tb, arch, MultArch::array});
    }
  }
  for (const MultArch arch : {MultArch::array, MultArch::wallace}) {
    for (const int tb : {0, 4, 8}) {
      make_component(
          ctx, lib_,
          {ComponentKind::multiplier, 16, tb, AdderArch::cla4, arch});
    }
  }
  EXPECT_EQ(ctx.metrics().counter("optimize.calls").value(), 15u);
  EXPECT_EQ(ctx.metrics().counter("optimize.passes").value(), 24u);
}

TEST_F(PassesTest, ConstantOutputsStayConstant) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  // XOR(a, a) == 0 via CSE-aliased pins? XOR2 with both pins the same net.
  const NetId y = nl.mk(LogicFn::kXor2, a, a);
  nl.mark_output(y, "y");
  const OptimizeResult res = optimize(nl);
  // Truth table over "distinct" vars still sees two pins; the optimizer may
  // keep a gate, but function must be preserved.
  expect_equivalent(nl, res.netlist, 4, 6);
}

}  // namespace
}  // namespace aapx
