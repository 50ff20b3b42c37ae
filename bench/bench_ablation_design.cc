// Ablation study of the design choices DESIGN.md calls out, beyond the
// paper's own sweeps:
//  1. atomic virtual-accelerator composition (the ABC's model) vs naive
//     per-task placement with memory spills;
//  2. the lightweight interrupt path (ARC [6]) vs OS-level interrupt cost;
//  3. DMA through the shared L2 banks vs bypassing straight to DRAM
//     (the organization the BiN [7] line of work motivates).
#include <iostream>

#include "bench_util.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void ablation() {
  using namespace ara;
  benchutil::print_header(
      "Ablations (design choices behind the evaluated system)",
      "composition, lightweight interrupts, L2-resident DMA");

  const double scale = benchutil::bench_scale();

  std::cout << "\n1) ABC composition model (EKF-SLAM, best config):\n";
  {
    auto wl = workloads::make_benchmark("EKF-SLAM", scale);
    const core::ArchConfig atomic_cfg = core::ArchConfig::best_config();
    core::ArchConfig per_task = atomic_cfg;
    per_task.force_per_task = true;
    const auto a = benchutil::metered_point("composition: atomic", atomic_cfg, wl);
    const auto b = benchutil::metered_point("composition: per-task", per_task, wl);
    dse::Table t({"composition", "rel perf", "chains direct", "spilled"});
    t.add_row({"atomic (ABC)", "1.000", std::to_string(a.chains_direct),
               std::to_string(a.chains_spilled)});
    t.add_row({"per-task + spill",
               dse::Table::num(b.performance() / a.performance(), 3),
               std::to_string(b.chains_direct),
               std::to_string(b.chains_spilled)});
    t.print(std::cout);
  }

  std::cout << "\n2) interrupt path (Denoise, best config):\n";
  {
    auto wl = workloads::make_benchmark("Denoise", scale);
    dse::Table t({"interrupt overhead", "rel perf"});
    double base = 0;
    for (Tick overhead : {Tick{50}, Tick{2000}, Tick{10000}}) {
      core::ArchConfig cfg = core::ArchConfig::best_config();
      cfg.interrupt_overhead = overhead;
      const auto r = benchutil::metered_point(
          "interrupt overhead " + std::to_string(overhead), cfg, wl);
      if (base == 0) base = r.performance();
      t.add_row({(overhead == 50 ? "lightweight (50 cyc)"
                                 : "OS path (" + std::to_string(overhead) +
                                       " cyc)"),
                 dse::Table::num(r.performance() / base, 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\n3) DMA data placement (Deblur, best config):\n";
  {
    auto wl = workloads::make_benchmark("Deblur", scale);
    const auto through_l2 = benchutil::metered_point(
        "dma through L2", core::ArchConfig::best_config(), wl);
    core::ArchConfig bypass = core::ArchConfig::best_config();
    bypass.mem.l2_bypass = true;
    const auto direct = benchutil::metered_point("dma bypass to DRAM", bypass, wl);
    dse::Table t({"memory path", "rel perf", "DRAM MB", "L2 hit"});
    t.add_row({"through shared L2 (BiN-style)", "1.000",
               dse::Table::num(
                   static_cast<double>(through_l2.dram_bytes) / 1e6, 1),
               dse::Table::pct(through_l2.l2_hit_rate)});
    t.add_row({"bypass to DRAM",
               dse::Table::num(direct.performance() / through_l2.performance(),
                               3),
               dse::Table::num(static_cast<double>(direct.dram_bytes) / 1e6,
                               1),
               "-"});
    t.print(std::cout);
  }
}

void ablation_extra() {
  using namespace ara;
  const double scale = benchutil::bench_scale();

  std::cout << "\n4) GAM admission policy (mixed-size queue pressure):\n";
  {
    // A mixed queue (small Denoise jobs + large Segmentation jobs) is where
    // the admission order matters; drive the GAM directly.
    const auto small = workloads::make_benchmark("Denoise", scale);
    const auto large = workloads::make_benchmark("Segmentation", scale);
    dse::Table t({"policy", "makespan (cyc)", "p95 latency (cyc)",
                  "mean latency (cyc)"});
    for (auto policy : {abc::GamPolicy::kFifo, abc::GamPolicy::kShortestFirst,
                        abc::GamPolicy::kLargestFirst}) {
      core::ArchConfig cfg = core::ArchConfig::best_config();
      cfg.gam_policy = policy;
      cfg.max_jobs_in_flight = 4;  // force a deep GAM queue
      core::System sys(cfg);
      const Addr in = sys.memory().allocate(1 << 20);
      const Addr out = sys.memory().allocate(1 << 20);
      Tick makespan = 0;
      int done = 0;
      const int kJobs = 120;
      for (int j = 0; j < kJobs; ++j) {
        const auto* dfg = (j % 3 == 0) ? &large.dfg : &small.dfg;
        sys.gam().submit(dfg, in, out, sys.core_node(j % 8),
                         [&](JobId, Tick at) {
                           ++done;
                           makespan = std::max(makespan, at);
                         });
      }
      sys.simulator().run();
      const auto& lat = sys.gam().job_latency();
      t.add_row({abc::gam_policy_name(policy), std::to_string(makespan),
                 std::to_string(lat.percentile(0.95)),
                 dse::Table::num(lat.mean(), 0)});
    }
    t.print(std::cout);
  }

  std::cout << "\n5) BiN buffer pinning in the NUCA L2 (Deblur):\n";
  {
    auto wl = workloads::make_benchmark("Deblur", scale);
    core::ArchConfig off = core::ArchConfig::best_config();
    core::ArchConfig on = off;
    on.mem.bin_pinning = true;
    const auto r_off = benchutil::metered_point("bin pinning off", off, wl);
    const auto r_on = benchutil::metered_point("bin pinning on", on, wl);
    dse::Table t({"BiN pinning", "rel perf", "L2 hit", "DRAM MB"});
    t.add_row({"off", "1.000", dse::Table::pct(r_off.l2_hit_rate),
               dse::Table::num(static_cast<double>(r_off.dram_bytes) / 1e6, 1)});
    t.add_row({"on",
               dse::Table::num(r_on.performance() / r_off.performance(), 3),
               dse::Table::pct(r_on.l2_hit_rate),
               dse::Table::num(static_cast<double>(r_on.dram_bytes) / 1e6, 1)});
    t.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  ablation();
  ablation_extra();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
