#include "workloads/workload.h"

#include <algorithm>
#include <vector>

#include "common/config_error.h"
#include "sim/rng.h"

namespace ara::workloads {

dataflow::Dfg generate_dfg(const std::string& name, const DfgGenParams& p) {
  config_check(p.tasks > 0, "workload needs at least one task");
  sim::Rng rng(p.seed);

  struct ProtoNode {
    dataflow::DfgNode node;
    std::vector<TaskId> edges_from;  // producers
    std::uint64_t streamed = 0;      // elements moved (vs computed)
    bool has_succ = false;
  };
  std::vector<ProtoNode> proto;
  proto.reserve(p.tasks);

  auto pick_kind = [&]() {
    double total = 0;
    for (double w : p.kind_weights) total += w;
    double r = rng.next_double() * total;
    for (std::size_t k = 0; k < p.kind_weights.size(); ++k) {
      r -= p.kind_weights[k];
      if (r <= 0) return abb::asic_kinds()[k];
    }
    return abb::asic_kinds().back();
  };

  auto jittered_elements = [&]() {
    const double jitter = 0.75 + 0.5 * rng.next_double();  // +/- 25%
    return std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(
                static_cast<double>(p.elements) * jitter));
  };

  auto make_node = [&](bool is_head, TaskId pred) {
    ProtoNode pn;
    pn.node.kind = pick_kind();
    pn.streamed = jittered_elements();
    const std::uint64_t streamed = pn.streamed;
    pn.node.elements = streamed * p.compute_iterations;
    pn.node.needs_fabric =
        p.fabric_fraction > 0.0 && rng.next_bool(p.fabric_fraction);
    const std::uint32_t streams =
        is_head ? p.head_input_streams : p.chained_input_streams;
    pn.node.mem_in_bytes =
        static_cast<Bytes>(streams) * streamed * abb::kWordBytes;
    pn.node.chain_in_bytes =
        streamed * abb::kWordBytes * p.chain_words;
    if (!is_head) {
      pn.edges_from.push_back(pred);
      proto[pred].has_succ = true;
    }
    return pn;
  };

  // Build chains until the task budget is consumed. Chain length is
  // geometric with continuation probability = chain_fraction, so the
  // realized chaining degree (fraction of nodes with a producer) matches
  // the target in expectation.
  while (proto.size() < p.tasks) {
    proto.push_back(make_node(/*is_head=*/true, 0));
    TaskId prev = static_cast<TaskId>(proto.size() - 1);
    while (proto.size() < p.tasks && rng.next_bool(p.chain_fraction)) {
      proto.push_back(make_node(/*is_head=*/false, prev));
      const TaskId current = static_cast<TaskId>(proto.size() - 1);
      // Occasional fan-out: the same producer feeds a second consumer.
      if (proto.size() < p.tasks && rng.next_bool(p.branch_prob)) {
        proto.push_back(make_node(/*is_head=*/false, prev));
      }
      prev = current;
    }
  }

  // Leaf nodes store their result to memory.
  for (auto& pn : proto) {
    if (!pn.has_succ) {
      pn.node.mem_out_bytes = pn.streamed * abb::kWordBytes;
    }
  }

  dataflow::Dfg dfg(name);
  for (auto& pn : proto) {
    dataflow::DfgNode n = pn.node;
    n.preds.clear();  // edges added below for validation symmetry
    dfg.add_node(std::move(n));
  }
  for (TaskId t = 0; t < proto.size(); ++t) {
    for (TaskId producer : proto[t].edges_from) {
      dfg.add_edge(producer, t);
    }
  }
  dfg.finalize();
  return dfg;
}

}  // namespace ara::workloads
