// Unit tests for the dataflow layer: DFG, kernel IR, and the decomposer.
#include <gtest/gtest.h>

#include "common/config_error.h"
#include "dataflow/decomposer.h"
#include "dataflow/dfg.h"
#include "dataflow/kernel_ir.h"

namespace ara::dataflow {
namespace {

DfgNode simple_node(abb::AbbKind kind = abb::AbbKind::kPoly,
                    std::uint64_t elements = 100) {
  DfgNode n;
  n.kind = kind;
  n.elements = elements;
  n.mem_in_bytes = elements * 4;
  n.chain_in_bytes = elements * 4;
  return n;
}

TEST(Dfg, AddNodesAndEdges) {
  Dfg g("test");
  const TaskId a = g.add_node(simple_node());
  const TaskId b = g.add_node(simple_node(abb::AbbKind::kDivide));
  g.add_edge(a, b);
  g.finalize();
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.node(b).preds.size(), 1u);
  EXPECT_EQ(g.node(a).succs.size(), 1u);
  EXPECT_EQ(g.chain_edges(), 1u);
}

TEST(Dfg, TopoOrderRespectsEdges) {
  Dfg g;
  const TaskId a = g.add_node(simple_node());
  const TaskId b = g.add_node(simple_node());
  const TaskId c = g.add_node(simple_node());
  g.add_edge(c, b);  // c -> b, a independent
  g.add_edge(b, a);  // b -> a
  g.finalize();
  const auto& topo = g.topo_order();
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  EXPECT_LT(pos[c], pos[b]);
  EXPECT_LT(pos[b], pos[a]);
}

TEST(Dfg, DetectsCycles) {
  Dfg g;
  const TaskId a = g.add_node(simple_node());
  const TaskId b = g.add_node(simple_node());
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.finalize(), ConfigError);
}

TEST(Dfg, RejectsSelfEdgeAndBadIds) {
  Dfg g;
  const TaskId a = g.add_node(simple_node());
  EXPECT_THROW(g.add_edge(a, a), ConfigError);
  EXPECT_THROW(g.add_edge(a, 99), ConfigError);
}

TEST(Dfg, RejectsMutationAfterFinalize) {
  Dfg g;
  g.add_node(simple_node());
  g.finalize();
  EXPECT_THROW(g.add_node(simple_node()), ConfigError);
  EXPECT_THROW(g.finalize(), ConfigError);
}

TEST(Dfg, ChainingDegree) {
  Dfg g;
  const TaskId a = g.add_node(simple_node());
  const TaskId b = g.add_node(simple_node());
  g.add_node(simple_node());
  g.add_node(simple_node());
  g.add_edge(a, b);
  g.finalize();
  EXPECT_DOUBLE_EQ(g.chaining_degree(), 0.25);
}

TEST(Dfg, TotalsAndCriticalPath) {
  Dfg g;
  const TaskId a = g.add_node(simple_node(abb::AbbKind::kPoly, 100));
  const TaskId b = g.add_node(simple_node(abb::AbbKind::kDivide, 100));
  const TaskId c = g.add_node(simple_node(abb::AbbKind::kSqrt, 100));
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.finalize();
  EXPECT_EQ(g.total_mem_in(), 3u * 400u);
  EXPECT_EQ(g.total_chain_bytes(), 2u * 400u);
  EXPECT_EQ(g.critical_path_nodes(), 3u);
}

TEST(Dfg, FusedProfileAccumulates) {
  Dfg g;
  const TaskId a = g.add_node(simple_node(abb::AbbKind::kPoly, 200));
  const TaskId b = g.add_node(simple_node(abb::AbbKind::kDivide, 200));
  g.add_edge(a, b);
  g.finalize();
  const FusedProfile fp = g.fused_profile();
  EXPECT_EQ(fp.pipeline_latency,
            abb::params(abb::AbbKind::kPoly).pipeline_latency +
                abb::params(abb::AbbKind::kDivide).pipeline_latency);
  EXPECT_EQ(fp.elements, 200u);
  EXPECT_GT(fp.energy_pj_per_invocation, 0.0);
  EXPECT_GT(fp.area_mm2, 0.0);
}

// ---- kernel IR ----

TEST(KernelIr, BuildersValidate) {
  KernelIr ir("k", 100);
  const auto a = ir.input();
  const auto b = ir.input();
  const auto s = ir.binary(IrOp::kAdd, a, b);
  const auto q = ir.unary(IrOp::kSqrt, s);
  ir.mark_output(q);
  EXPECT_EQ(ir.size(), 4u);
  EXPECT_EQ(ir.input_count(), 2u);
  EXPECT_THROW(ir.binary(IrOp::kAdd, a, 99), ConfigError);
  EXPECT_THROW(ir.unary(IrOp::kAdd, a), ConfigError);
  EXPECT_THROW(ir.binary(IrOp::kSqrt, a, b), ConfigError);
  EXPECT_THROW(ir.mark_output(99), ConfigError);
}

TEST(KernelIr, OpClassification) {
  EXPECT_TRUE(is_poly_op(IrOp::kAdd));
  EXPECT_TRUE(is_poly_op(IrOp::kMul));
  EXPECT_FALSE(is_poly_op(IrOp::kDiv));
  EXPECT_TRUE(is_direct_abb_op(IrOp::kDiv));
  EXPECT_TRUE(is_direct_abb_op(IrOp::kReduceSum));
  EXPECT_FALSE(is_direct_abb_op(IrOp::kSin));
  EXPECT_TRUE(is_fabric_op(IrOp::kSin));
}

// ---- decomposer ----

TEST(Decomposer, GroupsArithmeticIntoOnePolyBlock) {
  KernelIr ir("k", 64);
  const auto a = ir.input();
  const auto b = ir.input();
  const auto c = ir.input();
  const auto m = ir.binary(IrOp::kMul, a, b);
  const auto s = ir.binary(IrOp::kAdd, m, c);
  ir.mark_output(s);
  const auto result = Decomposer().decompose(ir);
  EXPECT_EQ(result.poly_groups, 1u);
  EXPECT_EQ(result.dfg.size(), 1u);
  EXPECT_EQ(result.dfg.node(0).kind, abb::AbbKind::kPoly);
  // 3 streamed inputs x 64 elements x 4 bytes.
  EXPECT_EQ(result.dfg.node(0).mem_in_bytes, 3u * 64u * 4u);
  EXPECT_EQ(result.dfg.node(0).mem_out_bytes, 64u * 4u);
}

TEST(Decomposer, DirectOpsGetDedicatedBlocks) {
  KernelIr ir("k", 32);
  const auto a = ir.input();
  const auto b = ir.input();
  const auto d = ir.binary(IrOp::kDiv, a, b);
  const auto q = ir.unary(IrOp::kSqrt, d);
  ir.mark_output(q);
  const auto result = Decomposer().decompose(ir);
  EXPECT_EQ(result.direct_ops, 2u);
  EXPECT_EQ(result.dfg.size(), 2u);
  EXPECT_EQ(result.dfg.chain_edges(), 1u);  // div -> sqrt

  // exp, log and pow each get a dedicated power block.
  KernelIr pw("p", 32);
  const auto x = pw.input();
  const auto y = pw.input();
  const auto e = pw.unary(IrOp::kExp, x);
  const auto l = pw.unary(IrOp::kLog, e);
  const auto p = pw.binary(IrOp::kPow, l, y);
  pw.mark_output(p);
  const auto powers = Decomposer().decompose(pw);
  EXPECT_EQ(powers.direct_ops, 3u);
  ASSERT_EQ(powers.dfg.size(), 3u);
  for (const auto& n : powers.dfg.nodes()) {
    EXPECT_EQ(n.kind, abb::AbbKind::kPower);
  }
}

TEST(Decomposer, SplitsGroupsAtSixteenInputs) {
  // Sum 20 inputs pairwise: one poly block holds at most 16 externals.
  KernelIr ir("k", 16);
  std::vector<std::uint32_t> vals;
  for (int i = 0; i < 20; ++i) vals.push_back(ir.input());
  std::uint32_t acc = vals[0];
  for (int i = 1; i < 20; ++i) acc = ir.binary(IrOp::kAdd, acc, vals[i]);
  ir.mark_output(acc);
  const auto result = Decomposer().decompose(ir);
  EXPECT_GE(result.poly_groups, 2u);
  for (const auto& n : result.dfg.nodes()) {
    EXPECT_LE(n.mem_in_bytes / (16 * 4), 16u);
  }
}

TEST(Decomposer, FabricOpsFlaggedOrRejected) {
  KernelIr ir("k", 16);
  const auto a = ir.input();
  const auto s = ir.unary(IrOp::kSin, a);
  ir.mark_output(s);
  const auto result = Decomposer(/*allow_fabric=*/true).decompose(ir);
  EXPECT_EQ(result.fabric_ops, 1u);
  EXPECT_TRUE(result.dfg.node(0).needs_fabric);
  EXPECT_THROW(Decomposer(/*allow_fabric=*/false).decompose(ir),
               ConfigError);
}

TEST(Decomposer, ConstantsAreNotOperandTraffic) {
  KernelIr ir("k", 64);
  const auto a = ir.input();
  const auto c = ir.constant();
  const auto m = ir.binary(IrOp::kMul, a, c);
  ir.mark_output(m);
  const auto result = Decomposer().decompose(ir);
  EXPECT_EQ(result.dfg.node(0).mem_in_bytes, 64u * 4u);  // only `a`
}

TEST(Decomposer, ChainEdgesBetweenGroups) {
  // poly -> div -> poly: three tasks, two chain edges.
  KernelIr ir("k", 64);
  const auto a = ir.input();
  const auto b = ir.input();
  const auto s = ir.binary(IrOp::kAdd, a, b);
  const auto d = ir.binary(IrOp::kDiv, s, a);
  const auto t = ir.binary(IrOp::kMul, d, d);
  ir.mark_output(t);
  const auto result = Decomposer().decompose(ir);
  EXPECT_EQ(result.dfg.size(), 3u);
  EXPECT_EQ(result.dfg.chain_edges(), 2u);
  EXPECT_EQ(result.dfg.critical_path_nodes(), 3u);

  // Marking the divide as a second output stores it too, while it still
  // feeds the last group over its chain edge.
  ir.mark_output(d);
  const auto two = Decomposer().decompose(ir);
  std::size_t stores = 0;
  for (const auto& n : two.dfg.nodes()) stores += n.mem_out_bytes > 0 ? 1 : 0;
  EXPECT_EQ(stores, 2u);
  EXPECT_EQ(two.dfg.chain_edges(), 2u);
}

TEST(Decomposer, ReductionMapsToSumBlock) {
  KernelIr ir("k", 64);
  std::vector<std::uint32_t> vals;
  for (int i = 0; i < 8; ++i) vals.push_back(ir.input());
  const auto r = ir.reduce(vals);
  ir.mark_output(r);
  const auto result = Decomposer().decompose(ir);
  ASSERT_EQ(result.dfg.size(), 1u);
  EXPECT_EQ(result.dfg.node(0).kind, abb::AbbKind::kSum);
}

}  // namespace
}  // namespace ara::dataflow
