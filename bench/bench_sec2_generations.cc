// Sec. 2: the three architecture generations. ARC's monolithic
// accelerators deliver large gains over software (paper: 16X perf / 13X
// energy vs a 4-core Xeon on medical imaging); CHARM's composable ABBs
// deliver roughly 2X ARC's performance from better resource utilization;
// CAMEL's programmable fabric extends coverage to kernels with ops outside
// the ABB library at some efficiency cost (12X perf / 14X energy vs the
// 4-core CMP on out-of-domain benchmarks).
#include <iostream>

#include "bench_util.h"
#include "core/system.h"
#include "cmp/cmp_model.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/out_of_domain.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace {

void sec2() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 2 (ARC vs CHARM vs CAMEL)",
      "ARC ~16X/13X vs 4-core CMP; CHARM ~2X ARC perf; CAMEL ~12X/14X on "
      "out-of-domain kernels");

  const double scale = benchutil::bench_scale();
  const cmp::CmpModel cmp4(cmp::CmpConfig::xeon_e5405());

  // --- ARC vs CHARM on the medical imaging domain ---
  // ARC hosts a DEDICATED monolithic accelerator per kernel of the domain;
  // under the same silicon budget as CHARM's 120 shared ABBs, the area
  // available to any one kernel's accelerator is total-ABB-area divided by
  // the domain size, which bounds the instance count. This is the paper's
  // utilization/coverage argument: the composable ABBs serve whichever
  // kernel is running, dedicated accelerators cannot.
  std::cout << "\nmedical imaging domain, 12 islands (vs 4-core Xeon "
               "E5405):\n";
  constexpr int kDomainKernels = 4;
  double total_abb_area = 0;
  {
    core::System probe(core::ArchConfig::ring_design(12, 2, 32));
    for (IslandId i = 0; i < probe.island_count(); ++i) {
      total_abb_area += probe.island(i).compute_area_mm2();
    }
  }

  dse::Table t({"benchmark", "ARC accels", "ARC speedup", "ARC energy gain",
                "CHARM speedup", "CHARM energy gain", "CHARM/ARC"});
  double ratio_sum = 0;
  int n = 0;
  for (const char* name :
       {"Deblur", "Denoise", "Segmentation", "Registration"}) {
    auto wl = workloads::make_benchmark(name, scale);
    const auto sw = cmp4.run(wl);

    const double fused_area = wl.dfg.fused_profile().area_mm2;
    const auto instances = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(total_abb_area / kDomainKernels /
                                      fused_area));
    core::ArchConfig arc = core::ArchConfig::ring_design(12, 2, 32);
    arc.mode = abc::ExecutionMode::kMonolithic;
    arc.mono_instances = instances;
    const auto r_arc =
        benchutil::metered_point(std::string(name) + ", ARC", arc, wl);

    const core::ArchConfig charm = core::ArchConfig::ring_design(12, 2, 32);
    const auto r_charm =
        benchutil::metered_point(std::string(name) + ", CHARM", charm, wl);

    const double arc_sp = sw.seconds / r_arc.seconds();
    const double charm_sp = sw.seconds / r_charm.seconds();
    ratio_sum += charm_sp / arc_sp;
    ++n;
    t.add_row({name, std::to_string(instances), dse::Table::num(arc_sp, 1),
               dse::Table::num(sw.joules / r_arc.energy.total(), 1),
               dse::Table::num(charm_sp, 1),
               dse::Table::num(sw.joules / r_charm.energy.total(), 1),
               dse::Table::num(charm_sp / arc_sp, 2) + "X"});
  }
  t.print(std::cout);
  std::cout << "mean CHARM/ARC performance: "
            << dse::Table::num(ratio_sum / n, 2) << "X (paper: over 2X)\n";

  // --- CAMEL: the out-of-domain suite (ops outside the ABB library) ---
  std::cout << "\nout-of-domain suite on CAMEL islands (2 PF blocks "
               "each):\n";
  core::ArchConfig camel = core::ArchConfig::ring_design(12, 2, 32);
  camel.island.fabric_blocks = 2;
  dse::Table ct({"benchmark", "fabric tasks", "CAMEL speedup",
                 "CAMEL energy gain"});
  double sp_sum = 0, eg_sum = 0;
  int cn = 0;
  for (const auto& name : workloads::out_of_domain_names()) {
    auto wl = workloads::make_out_of_domain(name, scale);
    std::size_t fabric = 0;
    for (const auto& node : wl.dfg.nodes()) fabric += node.needs_fabric;
    const auto r = benchutil::metered_point(name + ", CAMEL", camel, wl);
    const auto sw = cmp4.run(wl);
    const double sp = sw.seconds / r.seconds();
    const double eg = sw.joules / r.energy.total();
    sp_sum += sp;
    eg_sum += eg;
    ++cn;
    ct.add_row({name, std::to_string(fabric), dse::Table::num(sp, 1),
                dse::Table::num(eg, 1)});
  }
  ct.print(std::cout);
  std::cout << "  suite averages: " << dse::Table::num(sp_sum / cn, 1)
            << "X speedup (paper 12X), " << dse::Table::num(eg_sum / cn, 1)
            << "X energy (paper 14X)\n"
            << "  (pure CHARM rejects these kernels: ops outside the ABB "
               "library)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec2();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
