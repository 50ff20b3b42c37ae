// ara_paper: every figure, table and section claim of the paper that this
// repository reproduces, as one row of kFigures (DESIGN.md §4 order). A
// row lists the design points it needs at the run's scale and prints its
// tables from their results. ara_paper pools the selected rows' points
// into one dse::SweepRequest, so a point that several rows need (Figs. 7,
// 8 and 9 share all 70 of theirs) simulates once, and prints each row in
// table order. EXPERIMENTS.md holds each row's output verbatim, pinned by
// the paper_experiments ctest.
//
// Usage: ara_paper [--jobs N] [--metrics F] [--cache DIR] [--check] [id...]
//
// ARA_BENCH_SCALE (default 0.5) scales workload invocation counts. stdout
// carries only the rows' tables, so it is the same at any --jobs, with a
// cold or a warm --cache and with or without --check; the [sweep] summary
// and the [metrics] line go to stderr. --metrics writes every selected
// row's points as labeled JSON, row by row in point order. Exit codes: 0
// ok, 1 metrics file not writable, 2 usage error (unknown id or flag,
// malformed value, a scale the workloads reject).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abb/abb_types.h"
#include "check/check.h"
#include "cmp/cmp_model.h"
#include "common/cli_options.h"
#include "common/config_error.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "dse/parallel_sweep.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "island/island_config.h"
#include "obs/metrics_export.h"
#include "power/area_model.h"
#include "power/compute_unit_energy.h"
#include "power/mcpat_like.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace {

using namespace ara;

/// One simulated design point of a row: the label of its --metrics
/// snapshot, its configuration and its workload (owned by the Context).
struct Point {
  std::string label;
  core::ArchConfig config;
  const workloads::Workload* workload = nullptr;
};
using Points = std::vector<Point>;
/// A row's results, in the order of its points.
using Results = std::span<const dse::SweepResult>;

/// What the rows share: one workload per name, built at the run's scale,
/// so rows that need the same benchmark borrow the same object.
class Context {
 public:
  explicit Context(double scale) : scale_(scale) {}

  const workloads::Workload& workload(const std::string& name) {
    auto it = workloads_.find(name);
    if (it == workloads_.end()) {
      it = workloads_.emplace(name, workloads::make_benchmark(name, scale_))
               .first;
    }
    return it->second;
  }

 private:
  double scale_;
  std::map<std::string, workloads::Workload> workloads_;
};

double norm(double value, double base) {
  return base == 0 ? 0.0 : value / base;
}

void print_header(const std::string& artifact,
                  const std::string& paper_summary) {
  std::cout << "==============================================================\n"
            << "Reproduction of " << artifact << "\n"
            << "Paper reports: " << paper_summary << "\n"
            << "==============================================================\n";
}

// --- Figure 1: hardware parameters of the modelled general-purpose
// processor, plus the Sec. 1 footnote anchors (McPAT vs synthesized Int
// ALU power).
void print_fig01(Context&, Results) {
  print_header(
      "Figure 1 (hardware parameters for general-purpose processor)",
      "4-wide OoO, 3 int ALUs, 2 FP ALUs, 96 ROB, 64 RS, 32KB L1s, 6MB L2");

  const power::PipelineParams p;
  dse::Table t({"PARAMETER", "VALUE"});
  t.add_row({"Fetch/issue/retire width", std::to_string(p.fetch_width)});
  t.add_row({"# Integer ALUs", std::to_string(p.int_alus)});
  t.add_row({"# FP ALUs", std::to_string(p.fp_alus)});
  t.add_row({"# ROB entries", std::to_string(p.rob_entries)});
  t.add_row({"# Reservation station entries", std::to_string(p.rs_entries)});
  t.add_row({"L1 I-cache", std::to_string(p.l1i_kb) + " KB, " +
                               std::to_string(p.assoc) + "-way set assoc."});
  t.add_row({"L1 D-cache", std::to_string(p.l1d_kb) + " KB, " +
                               std::to_string(p.assoc) + "-way set assoc."});
  t.add_row({"L2 cache", std::to_string(p.l2_mb) + " MB, " +
                             std::to_string(p.assoc) + "-way set assoc."});
  t.add_row({"Clock", dse::Table::num(p.freq_ghz, 1) + " GHz"});
  t.print(std::cout);

  std::cout << "\nSec. 1 footnote anchors:\n"
            << "  McPAT Int ALU power @2GHz: " << power::kMcPatIntAluPowerMw
            << " mW (paper: 422.02 mW)\n"
            << "  45nm synthesized Int ALU:  " << power::kSynthIntAluPowerMw
            << " mW @ " << power::kSynthIntAluClockMhz
            << " MHz max (paper: 11.41 mW @ 500 MHz)\n";
}

// --- Sec. 1: compute-unit energy, processor vs dedicated 45nm ASIC
// blocks. Paper: add 0.122 vs 0.002 nJ (61X), mul 0.120 vs 0.007 (17X),
// SP FP 0.150 vs 0.008 (19X).
void print_intro(Context&, Results) {
  print_header("Sec. 1 compute-unit energy comparison",
               "ASIC saves 61X (add), 17X (mul), 19X (SP FP)");

  dse::Table t({"operation", "processor nJ", "ASIC nJ", "ASIC clock",
                "saving factor"});
  for (const auto& e : power::compute_op_table()) {
    t.add_row({e.name, dse::Table::num(e.processor_nj, 3),
               dse::Table::num(e.asic_nj, 3),
               dse::Table::num(e.asic_clock_mhz / 1000.0, 1) + " GHz",
               dse::Table::num(e.processor_nj / e.asic_nj, 0) + "X"});
  }
  t.print(std::cout);

  std::cout << "\nInefficiency decomposition (paper's three sources):\n";
  dse::Table d({"operation", "excess functionality", "excess precision",
                "dynamic logic"});
  for (const auto& e : power::compute_op_table()) {
    const auto dec = power::saving_decomposition(e.op);
    d.add_row({e.name, dse::Table::num(dec.excess_functionality, 1) + "X",
               dse::Table::num(dec.excess_precision, 1) + "X",
               dse::Table::num(dec.dynamic_logic, 1) + "X"});
  }
  d.print(std::cout);
}

// --- Figure 2: energy breakdown of the original OoO pipeline under a
// SPEC-like instruction mix (McPAT-style model). Paper shares: Fetch 8.9,
// Decode 6.0, Rename 12.1, Reg Files 2.7, Scheduler 10.8, Misc 23.7, FPU
// 7.9, Int ALU 13.8, Mul/Div 4.0, Memory 10.1 (percent).
void print_fig02(Context&, Results) {
  constexpr double kPaperShares[] = {8.9, 6.0, 12.1, 2.7, 10.8,
                                     23.7, 7.9, 13.8, 4.0, 10.1};
  print_header(
      "Figure 2 (energy breakdown of original pipeline)",
      "compute units 25.7% + memory 10.1%; 64% supports the "
      "instruction-oriented model");

  const power::McPatLikePipeline model{power::PipelineParams{},
                                       power::InstructionMix{}};
  dse::Table t({"component", "share (model)", "share (paper)",
                "pJ/instruction"});
  double compute = 0, memory = 0;
  for (std::size_t i = 0; i < power::kNumPipeComponents; ++i) {
    const auto c = static_cast<power::PipeComponent>(i);
    t.add_row({power::component_name(c), dse::Table::pct(model.share(c)),
               dse::Table::num(kPaperShares[i], 1) + "%",
               dse::Table::num(model.energy_pj(c), 1)});
    if (power::is_compute_unit(c)) compute += model.share(c);
    if (c == power::PipeComponent::kMemory) memory += model.share(c);
  }
  t.print(std::cout);
  std::cout << "\ncompute units total: " << dse::Table::pct(compute)
            << " (paper: 25.7%)\n"
            << "memory:              " << dse::Table::pct(memory)
            << " (paper: 10.1%)\n"
            << "overhead (neither):  " << dse::Table::pct(1 - compute - memory)
            << " (paper: 64%)\n"
            << "total energy/instr:  " << dse::Table::num(model.total_pj(), 0)
            << " pJ\n";
}

// --- Figure 3: pipeline energy breakdown when custom ASIC replaces the
// compute units (Int ALU / FPU / Mul-Div). Paper: savings slice 24.9%; FPU
// 0.4%, Int ALU 0.2%, Mul/Div 0.2%; computation (compute + memory) now
// ~11% of the original energy.
void print_fig03(Context&, Results) {
  print_header(
      "Figure 3 (energy breakdown with custom ASIC compute units)",
      "ALU/FPU/MulDiv savings 24.9% of original; compute <1%; "
      "remaining computation ~11%");

  const power::McPatLikePipeline original{power::PipelineParams{},
                                          power::InstructionMix{}};
  const auto asic = original.with_asic_compute_units(/*reduction=*/0.97);

  dse::Table t({"component", "share of original", "paper"});
  const double orig_total = original.total_pj();
  const char* paper[] = {"8.9%", "6.0%", "12.1%", "2.7%", "10.8%",
                         "23.7%", "0.4%", "0.2%", "0.2%", "10.1%"};
  double compute = 0, memory = 0;
  for (std::size_t i = 0; i < power::kNumPipeComponents; ++i) {
    const auto c = static_cast<power::PipeComponent>(i);
    const double share = asic.energy_pj(c) / orig_total;
    t.add_row({power::component_name(c), dse::Table::pct(share), paper[i]});
    if (power::is_compute_unit(c)) compute += share;
    if (c == power::PipeComponent::kMemory) memory += share;
  }
  t.add_row({"ALU/FPU/Mul/Div energy savings",
             dse::Table::pct(asic.savings_share()), "24.9%"});
  t.print(std::cout);

  std::cout << "\ncompute units now:        " << dse::Table::pct(compute)
            << " of original (paper: <1%)\n"
            << "computation (compute+mem): " << dse::Table::pct(compute + memory)
            << " of original (paper: ~11%)\n"
            << "=> an accelerator-rich architecture can attack the remaining "
            << dse::Table::pct(1 - compute - memory) << "\n";
}

// --- Sec. 2: the three architecture generations. ARC's monolithic
// accelerators deliver large gains over software (paper: 16X perf / 13X
// energy vs a 4-core Xeon on medical imaging); CHARM's composable ABBs
// deliver roughly 2X ARC's performance from better resource utilization;
// CAMEL's programmable fabric extends coverage to kernels with ops outside
// the ABB library at some efficiency cost (12X perf / 14X energy vs the
// 4-core CMP on out-of-domain benchmarks).
constexpr const char* kMedicalDomain[] = {"Deblur", "Denoise", "Segmentation",
                                          "Registration"};

// ARC hosts a DEDICATED monolithic accelerator per kernel of the domain;
// under the same silicon budget as CHARM's 120 shared ABBs, the area
// available to any one kernel's accelerator is total-ABB-area divided by
// the domain size, which bounds the instance count. This is the paper's
// utilization/coverage argument: the composable ABBs serve whichever
// kernel is running, dedicated accelerators cannot.
double charm_abb_area() {
  core::System probe(core::ArchConfig::ring_design(12, 2, 32));
  double total = 0;
  for (IslandId i = 0; i < probe.island_count(); ++i) {
    total += probe.island(i).compute_area_mm2();
  }
  return total;
}

std::uint32_t arc_instances(const workloads::Workload& wl,
                            double total_abb_area) {
  constexpr int kDomainKernels = 4;
  const double fused_area = wl.dfg.fused_profile().area_mm2;
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(total_abb_area / kDomainKernels /
                                    fused_area));
}

Points sec2_points(Context& ctx) {
  const double abb_area = charm_abb_area();
  Points pts;
  for (const char* name : kMedicalDomain) {
    const auto& wl = ctx.workload(name);
    core::ArchConfig arc = core::ArchConfig::ring_design(12, 2, 32);
    arc.mode = abc::ExecutionMode::kMonolithic;
    arc.mono_instances = arc_instances(wl, abb_area);
    pts.push_back({std::string(name) + ", ARC", arc, &wl});
    pts.push_back({std::string(name) + ", CHARM",
                   core::ArchConfig::ring_design(12, 2, 32), &wl});
  }
  core::ArchConfig camel = core::ArchConfig::ring_design(12, 2, 32);
  camel.island.fabric_blocks = 2;
  for (const auto& name : workloads::out_of_domain_names()) {
    pts.push_back({name + ", CAMEL", camel, &ctx.workload(name)});
  }
  return pts;
}

void print_sec2(Context& ctx, Results r) {
  print_header(
      "Sec. 2 (ARC vs CHARM vs CAMEL)",
      "ARC ~16X/13X vs 4-core CMP; CHARM ~2X ARC perf; CAMEL ~12X/14X on "
      "out-of-domain kernels");
  const cmp::CmpModel cmp4(cmp::CmpConfig::xeon_e5405());
  const double abb_area = charm_abb_area();

  std::cout << "\nmedical imaging domain, 12 islands (vs 4-core Xeon "
               "E5405):\n";
  dse::Table t({"benchmark", "ARC accels", "ARC speedup", "ARC energy gain",
                "CHARM speedup", "CHARM energy gain", "CHARM/ARC"});
  double ratio_sum = 0;
  int n = 0;
  for (const char* name : kMedicalDomain) {
    const auto& wl = ctx.workload(name);
    const auto sw = cmp4.run(wl);
    const auto& r_arc = r[2 * n].result;
    const auto& r_charm = r[2 * n + 1].result;
    const double arc_sp = sw.seconds / r_arc.seconds();
    const double charm_sp = sw.seconds / r_charm.seconds();
    ratio_sum += charm_sp / arc_sp;
    ++n;
    t.add_row({name, std::to_string(arc_instances(wl, abb_area)),
               dse::Table::num(arc_sp, 1),
               dse::Table::num(sw.joules / r_arc.energy.total(), 1),
               dse::Table::num(charm_sp, 1),
               dse::Table::num(sw.joules / r_charm.energy.total(), 1),
               dse::Table::num(charm_sp / arc_sp, 2) + "X"});
  }
  t.print(std::cout);
  std::cout << "mean CHARM/ARC performance: "
            << dse::Table::num(ratio_sum / n, 2) << "X (paper: over 2X)\n";

  std::cout << "\nout-of-domain suite on CAMEL islands (2 PF blocks "
               "each):\n";
  dse::Table ct({"benchmark", "fabric tasks", "CAMEL speedup",
                 "CAMEL energy gain"});
  double sp_sum = 0, eg_sum = 0;
  int cn = 0;
  for (const auto& name : workloads::out_of_domain_names()) {
    const auto& wl = ctx.workload(name);
    std::size_t fabric = 0;
    for (const auto& node : wl.dfg.nodes()) fabric += node.needs_fabric;
    const auto& res = r[2 * n + cn].result;
    const auto sw = cmp4.run(wl);
    const double sp = sw.seconds / res.seconds();
    const double eg = sw.joules / res.energy.total();
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

// --- Sec. 5.1: SPM sharing analysis. The paper dismisses neighbour SPM
// sharing: the ABB<->SPM crossbar grows 3X while SPM banks shrink to
// 0.66X; SPM is ~20% of the private crossbar's area (7% with sharing);
// and sharing constrains concurrent allocation (an active ABB blocks its
// neighbours), hurting effective parallelism. The runtime cost runs a
// chaining-heavy benchmark with and without sharing (3 islands, proxy
// crossbar baseline).
Points sec51_points(Context& ctx) {
  const auto& wl = ctx.workload("Segmentation");
  core::ArchConfig base = core::ArchConfig::paper_baseline(3);
  core::ArchConfig shared = base;
  shared.island.spm_sharing = true;
  return {{"private SPM", base, &wl}, {"neighbour sharing", shared, &wl}};
}

void print_sec51(Context&, Results r) {
  print_header(
      "Sec. 5.1 (SPM sharing is a poor trade)",
      "sharing: crossbar 3X, SPM banks 0.66X, SPM/xbar 20% -> 7%, "
      "neighbours blocked while an ABB is active");

  // Area analysis on the polynomial ABB (the dominant kind).
  const auto& poly = abb::params(abb::AbbKind::kPoly);
  const double spm_priv =
      power::spm_group_area_mm2(poly.spm_bytes, poly.min_spm_ports);
  const double xbar_priv =
      power::abb_spm_xbar_area_mm2(poly.min_spm_ports, poly.spm_bytes, false);
  const Bytes shared_spm = poly.spm_bytes * 2 / 3;
  const double spm_shared =
      power::spm_group_area_mm2(shared_spm, poly.min_spm_ports);
  // Crossbar sizing uses the baseline footprint: sharing changes the
  // connectivity (3X), not the bank macros behind it.
  const double xbar_shared =
      power::abb_spm_xbar_area_mm2(poly.min_spm_ports, poly.spm_bytes, true);

  dse::Table t({"quantity", "model", "paper"});
  t.add_row({"crossbar growth with sharing",
             dse::Table::num(xbar_shared / xbar_priv, 2) + "X", "3X"});
  t.add_row({"SPM capacity with sharing",
             dse::Table::num(
                 static_cast<double>(shared_spm) /
                     static_cast<double>(poly.spm_bytes), 2) + "X",
             "0.66X"});
  t.add_row({"SPM area / crossbar area (private)",
             dse::Table::pct(spm_priv / xbar_priv), "~20%"});
  t.add_row({"SPM area / crossbar area (sharing)",
             dse::Table::pct(spm_shared / xbar_shared), "~7%"});
  t.print(std::cout);

  std::cout << "\nruntime cost of the sharing allocation constraint "
               "(Segmentation, 3 islands):\n";
  const auto& r_priv = r[0].result;
  const auto& r_shared = r[1].result;
  dse::Table rt({"design", "relative performance", "island area mm2"});
  rt.add_row({"private SPM", "1.000", dse::Table::num(r_priv.area.islands_mm2, 1)});
  rt.add_row({"neighbour sharing",
              dse::Table::num(r_shared.performance() / r_priv.performance(), 3),
              dse::Table::num(r_shared.area.islands_mm2, 1)});
  rt.print(std::cout);
  std::cout << "=> sharing is dismissed as a design choice (paper Sec. 5.1)\n";
}

// --- Sec. 5.2: the chaining-optimized crossbar does not scale. For large
// islands (40 ABBs) the SPM<->DMA network exceeds 99% of the island area
// while buying only modest performance: most ABB pairs are not
// communicating at any given time, so the all-to-all capacity is severely
// over-provisioned. Performance compares chaining xbar vs proxy xbar vs
// 2-ring on the two most chaining-heavy benchmarks at 3 islands.
constexpr const char* kChainingHeavy[] = {"Segmentation", "EKF-SLAM"};

Points sec52_points(Context& ctx) {
  Points pts;
  for (const char* name : kChainingHeavy) {
    const auto& wl = ctx.workload(name);
    const core::ArchConfig proxy = core::ArchConfig::paper_baseline(3);
    core::ArchConfig chainx = proxy;
    chainx.island.net.topology = island::SpmDmaTopology::kChainingXbar;
    const std::string label(name);
    pts.push_back({label + ", proxy-xbar", proxy, &wl});
    pts.push_back({label + ", chaining-xbar", chainx, &wl});
    pts.push_back({label + ", 2-ring,32B",
                   core::ArchConfig::ring_design(3, 2, 32), &wl});
  }
  return pts;
}

void print_sec52(Context&, Results r) {
  print_header(
      "Sec. 5.2 (chaining-optimized crossbar topology)",
      ">99% of a 40-ABB island's area; only modest performance gain");

  // Area share of the SPM<->DMA network across island sizes and topologies.
  dse::Table t({"ABBs/island", "net topology", "net area mm2",
                "share of island area"});
  for (std::uint32_t islands : {24u, 12u, 6u, 3u}) {
    for (auto topo : {island::SpmDmaTopology::kProxyXbar,
                      island::SpmDmaTopology::kChainingXbar}) {
      core::ArchConfig cfg = core::ArchConfig::paper_baseline(islands);
      cfg.island.net.topology = topo;
      core::System system(cfg);
      const auto& isl = system.island(0);
      t.add_row({std::to_string(120 / islands),
                 island::topology_name(topo),
                 dse::Table::num(isl.net_area_mm2(), 1),
                 dse::Table::pct(isl.net_area_mm2() / isl.total_area_mm2())});
    }
  }
  t.print(std::cout);

  std::cout << "\nperformance at 3 islands (normalized to proxy xbar):\n";
  dse::Table pt({"benchmark", "proxy-xbar", "chaining-xbar", "2-ring,32B"});
  for (std::size_t i = 0; i < std::size(kChainingHeavy); ++i) {
    const double base = r[3 * i].result.performance();
    pt.add_row({kChainingHeavy[i], "1.000",
                dse::Table::num(r[3 * i + 1].result.performance() / base, 3),
                dse::Table::num(r[3 * i + 2].result.performance() / base, 3)});
  }
  pt.print(std::cout);
  std::cout << "=> the chaining-optimized crossbar buys performance but at "
               "an untenable area cost for large islands\n";
}

// --- Sec. 5.3: ring width and ring count. The paper finds a 2-ring
// network of 16-byte links performs almost identically to a 1-ring network
// of 32-byte links (with simpler routers), because the SPM<->DMA network
// moves data at cache-block/half-block granularity, so narrowing below a
// half block buys nothing.
struct RingDesign {
  const char* label;
  std::uint32_t rings;
  Bytes width;
};
constexpr RingDesign kRingDesigns[] = {
    {"1-ring,16B", 1, 16}, {"2-ring,16B", 2, 16}, {"1-ring,32B", 1, 32},
    {"2-ring,32B", 2, 32}, {"3-ring,32B", 3, 32}, {"1-ring,64B", 1, 64},
};
constexpr const char* kRingWidthBenchmarks[] = {"Denoise", "Segmentation",
                                                "EKF-SLAM"};

Points sec53_points(Context& ctx) {
  Points pts;
  for (const char* name : kRingWidthBenchmarks) {
    for (const auto& d : kRingDesigns) {
      pts.push_back({std::string(name) + ", " + d.label,
                     core::ArchConfig::ring_design(3, d.rings, d.width),
                     &ctx.workload(name)});
    }
  }
  return pts;
}

void print_sec53(Context&, Results r) {
  print_header(
      "Sec. 5.3 (ring width & ring count)",
      "2-ring 16B ~= 1-ring 32B; multiple narrow rings only help when "
      "packets are smaller than the ring width");

  std::vector<std::string> headers = {"benchmark"};
  for (const auto& d : kRingDesigns) headers.push_back(d.label);
  dse::Table t(std::move(headers));
  std::size_t idx = 0;
  for (const char* name : kRingWidthBenchmarks) {
    std::vector<std::string> row = {name};
    double base = 0;
    for (std::size_t i = 0; i < std::size(kRingDesigns); ++i, ++idx) {
      const double perf = r[idx].result.performance();
      if (i == 0) base = perf;
      row.push_back(dse::Table::num(norm(perf, base), 3));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\n(2-ring,16B should track 1-ring,32B closely; widening a "
               "single ring to 64B buys little beyond block granularity)\n";
}

// --- Sec. 5.4: SPM porting. Doubling SPM ports beyond the per-kind
// minimum contributes very little performance (software data layout
// already eliminates almost all bank conflicts) while increasing SPM
// area/power and the ABB<->SPM crossbar size — so exact provisioning is
// preferable.
Points sec54_points(Context& ctx) {
  Points pts;
  for (const auto& name : workloads::benchmark_names()) {
    const auto& wl = ctx.workload(name);
    const core::ArchConfig exact = core::ArchConfig::ring_design(6, 2, 32);
    core::ArchConfig doubled = exact;
    doubled.island.spm_port_multiplier = 2;
    pts.push_back({name + ", x1 ports", exact, &wl});
    pts.push_back({name + ", x2 ports", doubled, &wl});
  }
  return pts;
}

void print_sec54(Context&, Results r) {
  print_header(
      "Sec. 5.4 (SPM porting: exact vs doubled)",
      "2X ports => negligible performance gain, larger SPM/crossbar area; "
      "exact provisioning preferable");

  dse::Table t({"benchmark", "perf x1 ports", "perf x2 ports",
                "island area x1", "island area x2"});
  double gain_sum = 0;
  int n = 0;
  for (const auto& name : workloads::benchmark_names()) {
    const auto& r1 = r[2 * n].result;
    const auto& r2 = r[2 * n + 1].result;
    const double gain = r2.performance() / r1.performance();
    gain_sum += gain;
    ++n;
    t.add_row({name, "1.000", dse::Table::num(gain, 3),
               dse::Table::num(r1.area.islands_mm2, 1),
               dse::Table::num(r2.area.islands_mm2, 1)});
  }
  t.print(std::cout);
  std::cout << "\nmean performance gain from 2X porting: "
            << dse::Table::num((gain_sum / n - 1.0) * 100.0, 2)
            << "% (paper: \"very little ... if at all\")\n";
}

// --- Figure 6: performance impact of SPM<->DMA network choice while
// varying the number of ABB islands (3/6/12/24; 120 ABBs fixed), for
// Denoise and EKF-SLAM, normalized to the 3-island proxy-crossbar
// baseline.
//
// Paper shape: performance rises with island count (more NoC interfaces);
// low-chaining Denoise gains more than chaining-heavy EKF-SLAM; ring
// configurations sit above the crossbar, with the gap largest for small
// island counts.
struct Series {
  const char* workload;
  const char* net;
};
constexpr Series kFig06Series[] = {
    {"Denoise", "proxy-xbar"},  {"Denoise", "1-ring,16B"},
    {"Denoise", "1-ring,32B"},  {"Denoise", "2-ring,32B"},
    {"Denoise", "3-ring,32B"},  {"EKF-SLAM", "proxy-xbar"},
    {"EKF-SLAM", "1-ring,16B"}, {"EKF-SLAM", "1-ring,32B"},
};

// Series-major, island-count-minor: series s at island count i is point
// s * |counts| + i.
Points fig06_points(Context& ctx) {
  Points pts;
  for (const auto& s : kFig06Series) {
    for (std::uint32_t islands : dse::paper_island_counts()) {
      core::ArchConfig cfg = core::ArchConfig::paper_baseline(islands);
      for (const auto& p : dse::paper_network_configs(islands)) {
        if (p.label == s.net) cfg = p.config;
      }
      pts.push_back({std::string(s.workload) + ", " + s.net + ", " +
                         std::to_string(islands) + " islands",
                     cfg, &ctx.workload(s.workload)});
    }
  }
  return pts;
}

void print_fig06(Context&, Results r) {
  print_header(
      "Figure 6 (network choice vs island count; normalized to 3-island "
      "baseline)",
      "series rise 3->24 islands; Denoise (low chaining) gains most; "
      "crossbar trails rings");

  // Baseline: 3-island proxy crossbar, per workload — series 0 and 5 at
  // the first island count.
  const auto& island_counts = dse::paper_island_counts();
  std::map<std::string, double> base_perf;
  base_perf["Denoise"] = r[0].result.performance();
  base_perf["EKF-SLAM"] = r[5 * island_counts.size()].result.performance();

  dse::Table t({"series", "3 islands", "6 islands", "12 islands",
                "24 islands"});
  for (std::size_t si = 0; si < std::size(kFig06Series); ++si) {
    const auto& s = kFig06Series[si];
    std::vector<std::string> row = {std::string(s.workload) + ", " + s.net};
    for (std::size_t ii = 0; ii < island_counts.size(); ++ii) {
      const auto& res = r[si * island_counts.size() + ii].result;
      row.push_back(dse::Table::num(
          norm(res.performance(), base_perf[s.workload]), 3));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
}

// --- Figures 7, 8 and 9 report three metrics of one 70-point matrix:
// every paper benchmark at 3 and 24 islands on each of the five paper
// networks. Points are island-count-major, then benchmark
// (benchmark_names() order), then network (paper_network_configs order).
constexpr std::uint32_t kMatrixIslands[] = {3, 24};

Points matrix_points(Context& ctx) {
  Points pts;
  for (std::uint32_t islands : kMatrixIslands) {
    const auto nets = dse::paper_network_configs(islands);
    for (const auto& name : workloads::benchmark_names()) {
      const auto& wl = ctx.workload(name);
      for (const auto& p : nets) {
        pts.push_back({wl.name + ", " + p.label + ", " +
                           std::to_string(islands) + " islands",
                       p.config, &wl});
      }
    }
  }
  return pts;
}

/// One table per island count of `metric`, normalized per benchmark to
/// the proxy crossbar. Fig. 7 (`fig07`) also names the ABBs per island and
/// adds each benchmark's chaining degree.
void print_matrix(Context& ctx, Results r,
                  double (core::RunResult::*metric)() const, bool fig07) {
  std::size_t idx = 0;
  for (std::uint32_t islands : kMatrixIslands) {
    std::cout << "\n--- " << islands << " islands";
    if (fig07) std::cout << " (" << 120 / islands << " ABBs/island)";
    std::cout << " ---\n";
    const auto nets = dse::paper_network_configs(islands);
    std::vector<std::string> headers = {"benchmark"};
    for (const auto& p : nets) headers.push_back(p.label);
    if (fig07) headers.push_back("chain degree");
    dse::Table t(std::move(headers));
    for (const auto& name : workloads::benchmark_names()) {
      const auto& wl = ctx.workload(name);
      std::vector<std::string> row = {wl.name};
      double base = 0;
      for (std::size_t i = 0; i < nets.size(); ++i, ++idx) {
        const double value = (r[idx].result.*metric)();
        if (i == 0) base = value;
        row.push_back(dse::Table::num(norm(value, base), 3));
      }
      if (fig07) row.push_back(dse::Table::num(wl.dfg.chaining_degree(), 2));
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
}

// Figure 7: performance of SPM<->DMA ring networks vs the proxy-crossbar
// baseline at 3 islands (40 ABBs/island) and 24 islands (5 ABBs/island).
// Paper shape: most ring configurations outperform the crossbar; the
// impact shrinks as islands increase; the crossbar is worst for the
// chaining-heavy benchmarks (Segmentation, Robot Localization, EKF-SLAM,
// peaking around 2.2-2.6X at 3 islands).
void print_fig07(Context& ctx, Results r) {
  print_header(
      "Figure 7 (ring vs proxy crossbar; 3 and 24 islands)",
      "rings win, most for chaining-heavy benchmarks at 3 islands "
      "(up to ~2.6X); impact shrinks at 24 islands");
  print_matrix(ctx, r, &core::RunResult::performance, true);
}

// Figure 8: performance per unit energy. Paper shape: over-provisioning
// interconnect improves energy efficiency (higher performance at similar
// power per bit); efficiency gains from stronger interconnect shrink at
// 24 islands where the NoC interface dominates.
void print_fig08(Context& ctx, Results r) {
  print_header(
      "Figure 8 (performance per unit energy; normalized to proxy xbar)",
      "stronger interconnect => more energy-efficient operation; gains "
      "smaller at 24 islands (up to ~5-6X for chaining-heavy at 3 islands)");
  print_matrix(ctx, r, &core::RunResult::perf_per_energy, false);
}

// Figure 9: performance per unit area (compute density). Paper shape:
// compute density DROPS as network resources are added —
// under-provisioned networks win on density even though performance
// suffers; there is little justification for enlarging the network far
// beyond the NoC-interface bandwidth cap.
void print_fig09(Context& ctx, Results r) {
  print_header(
      "Figure 9 (performance per unit island area; normalized to proxy "
      "xbar)",
      "density falls as network resources grow; small networks see high "
      "utilization");
  print_matrix(ctx, r, &core::RunResult::perf_per_island_area, false);
}

// --- Sec. 5.7: area & compute density. The SPM<->DMA network accounts
// for 16-40% of island area for ring networks (depending on link width and
// ring count) and 44-50% for crossbar networks on large islands.
void print_sec57(Context&, Results) {
  print_header(
      "Sec. 5.7 (island area breakdown by SPM<->DMA network)",
      "ring: 16-40% of island area; crossbar: 44-50% for large islands");

  dse::Table t({"islands", "ABBs/isl", "network", "net mm2", "island mm2",
                "net share"});
  struct Net {
    const char* label;
    island::SpmDmaTopology topo;
    std::uint32_t rings;
    Bytes width;
  };
  const Net nets[] = {
      {"1-ring,16B", island::SpmDmaTopology::kRing, 1, 16},
      {"1-ring,32B", island::SpmDmaTopology::kRing, 1, 32},
      {"2-ring,32B", island::SpmDmaTopology::kRing, 2, 32},
      {"3-ring,32B", island::SpmDmaTopology::kRing, 3, 32},
      {"proxy-xbar", island::SpmDmaTopology::kProxyXbar, 1, 32},
  };
  for (std::uint32_t islands : {3u, 6u, 12u, 24u}) {
    for (const auto& net : nets) {
      core::ArchConfig cfg = core::ArchConfig::paper_baseline(islands);
      cfg.island.net.topology = net.topo;
      cfg.island.net.num_rings = net.rings;
      cfg.island.net.link_bytes = net.width;
      core::System system(cfg);
      const auto& isl = system.island(0);
      t.add_row({std::to_string(islands), std::to_string(120 / islands),
                 net.label, dse::Table::num(isl.net_area_mm2(), 2),
                 dse::Table::num(isl.total_area_mm2(), 2),
                 dse::Table::pct(isl.net_area_mm2() / isl.total_area_mm2())});
    }
  }
  t.print(std::cout);

  // Full-island component breakdown at the 3-island (40 ABB) point.
  std::cout << "\ncomponent breakdown, 40-ABB island with 2-ring,32B:\n";
  core::ArchConfig cfg = core::ArchConfig::ring_design(3, 2, 32);
  core::System system(cfg);
  const auto& isl = system.island(0);
  dse::Table c({"component", "mm2", "share"});
  const double total = isl.total_area_mm2();
  c.add_row({"ABB compute engines", dse::Table::num(isl.compute_area_mm2(), 2),
             dse::Table::pct(isl.compute_area_mm2() / total)});
  c.add_row({"SPM banks", dse::Table::num(isl.spm_area_mm2(), 2),
             dse::Table::pct(isl.spm_area_mm2() / total)});
  c.add_row({"ABB<->SPM crossbars",
             dse::Table::num(isl.abb_spm_xbar_area_mm2(), 2),
             dse::Table::pct(isl.abb_spm_xbar_area_mm2() / total)});
  c.add_row({"SPM<->DMA network", dse::Table::num(isl.net_area_mm2(), 2),
             dse::Table::pct(isl.net_area_mm2() / total)});
  c.print(std::cout);
}

// --- Figure 10 + Sec. 5.8: the DSE's best configuration (24 islands,
// 2-ring 32-byte SPM<->DMA network, no SPM sharing, exact SPM ports) vs a
// 12-core 1.9 GHz Xeon E5-2420 CMP.
//
// Paper: speedups {Deb 3.7, Den 4.3, Seg 28.6, Reg 4.8, Rob 3.0, Ekf 1.8,
// Dis 3.9} (avg ~7X) and energy gains {10.2, 12.1, 78.4, 13.4, 8.3, 5.1,
// 11.0} (avg ~20X); vs the 4-core CMP of [9]: 25X / 76X; ABB utilization
// 18.5% average, 43.5% peak.
struct PaperNumbers {
  const char* name;
  double speedup;
  double energy_gain;
};
constexpr PaperNumbers kFig10Paper[] = {
    {"Deblur", 3.7, 10.2},           {"Denoise", 4.3, 12.1},
    {"Segmentation", 28.6, 78.4},    {"Registration", 4.8, 13.4},
    {"RobotLocalization", 3.0, 8.3}, {"EKF-SLAM", 1.8, 5.1},
    {"DisparityMap", 3.9, 11.0},
};

Points fig10_points(Context& ctx) {
  Points pts;
  for (const auto& pn : kFig10Paper) {
    pts.push_back({std::string(pn.name) + ", best config",
                   core::ArchConfig::best_config(), &ctx.workload(pn.name)});
  }
  return pts;
}

void print_fig10(Context& ctx, Results r) {
  print_header(
      "Figure 10 (best accelerator-rich design vs 12-core CMP)",
      "avg 7X speedup / 20X energy; Segmentation the outlier winner; "
      "ABB util 18.5% avg / 43.5% peak");

  const cmp::CmpModel cmp12(cmp::CmpConfig::xeon_e5_2420());
  const cmp::CmpModel cmp4(cmp::CmpConfig::xeon_e5405());
  dse::Table t({"benchmark", "speedup", "paper", "energy gain", "paper",
                "avg util", "peak util"});
  double sp_sum = 0, eg_sum = 0, sp4_sum = 0, eg4_sum = 0;
  double util_sum = 0, util_peak = 0;
  for (std::size_t i = 0; i < std::size(kFig10Paper); ++i) {
    const auto& pn = kFig10Paper[i];
    const auto& wl = ctx.workload(pn.name);
    const auto& res = r[i].result;
    const auto sw12 = cmp12.run(wl);
    const auto sw4 = cmp4.run(wl);
    const double speedup = sw12.seconds / res.seconds();
    const double egain = sw12.joules / res.energy.total();
    sp_sum += speedup;
    eg_sum += egain;
    sp4_sum += sw4.seconds / res.seconds();
    eg4_sum += sw4.joules / res.energy.total();
    util_sum += res.avg_abb_utilization;
    util_peak = std::max(util_peak, res.peak_abb_utilization);
    t.add_row({pn.name, dse::Table::num(speedup, 1),
               dse::Table::num(pn.speedup, 1), dse::Table::num(egain, 1),
               dse::Table::num(pn.energy_gain, 1),
               dse::Table::pct(res.avg_abb_utilization),
               dse::Table::pct(res.peak_abb_utilization)});
  }
  t.print(std::cout);

  const double n = static_cast<double>(std::size(kFig10Paper));
  std::cout << "\naverages vs 12-core CMP: speedup "
            << dse::Table::num(sp_sum / n, 1) << "X (paper ~7X), energy "
            << dse::Table::num(eg_sum / n, 1) << "X (paper ~20X)\n"
            << "averages vs 4-core CMP:  speedup "
            << dse::Table::num(sp4_sum / n, 1) << "X (paper 25X), energy "
            << dse::Table::num(eg4_sum / n, 1) << "X (paper 76X)\n"
            << "ABB utilization: avg " << dse::Table::pct(util_sum / n)
            << " (paper 18.5%), peak " << dse::Table::pct(util_peak)
            << " (paper 43.5%)\n";
}

// --- Sec. 4: the simulated system's parameters ("Table 2 of [8], with the
// exception that the system in this work is configured with 4 memory
// controllers (avg. 180-cycle latency @ 10 GB/s) and 120 ABBs (78
// polynomial, 18 divide, 9 sqrt, 6 power, 9 sum) with uniform distribution
// of ABBs among the islands"). Echoes the substrate parameters the
// simulator instantiates, with the paper-stated values called out.
void print_sec4(Context&, Results) {
  print_header(
      "Sec. 4 (simulated system parameters)",
      "4 MCs @ 180 cycles / 10 GB/s; 120 ABBs = 78/18/9/6/9; uniform "
      "island distribution");

  const core::ArchConfig cfg = core::ArchConfig::best_config();
  dse::Table t({"parameter", "value", "paper-stated"});
  t.add_row({"memory controllers",
             std::to_string(cfg.mem.num_memory_controllers), "4"});
  t.add_row({"MC latency (avg cycles)",
             std::to_string(cfg.mem.mc.avg_latency), "180"});
  t.add_row({"MC bandwidth (B/cycle @1GHz)",
             dse::Table::num(cfg.mem.mc.bandwidth_bytes_per_cycle, 0),
             "10 GB/s"});
  t.add_row({"total ABBs", std::to_string(cfg.total_abbs), "120"});
  const auto mix = abb::paper_mix();
  t.add_row({"  polynomial", std::to_string(mix.count[0]), "78"});
  t.add_row({"  divide", std::to_string(mix.count[1]), "18"});
  t.add_row({"  sqrt", std::to_string(mix.count[2]), "9"});
  t.add_row({"  power", std::to_string(mix.count[3]), "6"});
  t.add_row({"  sum", std::to_string(mix.count[4]), "9"});
  t.add_row({"shared L2 banks", std::to_string(cfg.mem.num_l2_banks),
             "(Table 2 of [8])"});
  t.add_row({"L2 bank capacity (KiB)",
             std::to_string(cfg.mem.l2.capacity / 1024), "-"});
  t.add_row({"NoC", std::to_string(cfg.mesh.width) + "x" +
                        std::to_string(cfg.mesh.height) + " mesh, " +
                        dse::Table::num(cfg.mesh.link_bytes_per_cycle, 0) +
                        " B/cyc links", "(GEMS-based)"});
  t.add_row({"cores", std::to_string(cfg.num_cores), "-"});
  t.add_row({"DMA chunk (B)", std::to_string(cfg.island.dma_chunk_bytes),
             "-"});
  t.add_row({"island TLB", std::to_string(cfg.island.tlb.entries) +
                               " entries, " +
                               std::to_string(cfg.island.tlb.page_bytes /
                                              (1024 * 1024)) +
                               " MiB pages", "(small TLB, Sec. 2)"});
  t.print(std::cout);

  std::cout << "\nper-kind ABB parameters:\n";
  dse::Table a({"kind", "latency", "II", "in words", "min ports",
                "SPM KiB", "area mm2", "pJ/elem"});
  for (abb::AbbKind k : abb::asic_kinds()) {
    const auto& p = abb::params(k);
    a.add_row({p.name, std::to_string(p.pipeline_latency),
               std::to_string(p.initiation_interval),
               std::to_string(p.input_words),
               std::to_string(p.min_spm_ports),
               std::to_string(p.spm_bytes / 1024),
               dse::Table::num(p.area_mm2, 3),
               dse::Table::num(p.energy_pj_per_elem, 0)});
  }
  a.print(std::cout);

  // Island distribution check: uniform per Sec. 4.
  core::System sys(cfg);
  std::cout << "\nABBs per island: " << cfg.abbs_per_island()
            << " (uniform across " << cfg.num_islands << " islands)\n";
}

// --- Ablation study of the design choices DESIGN.md calls out, beyond
// the paper's own sweeps:
//  1. atomic virtual-accelerator composition (the ABC's model) vs naive
//     per-task placement with memory spills;
//  2. the lightweight interrupt path (ARC [6]) vs OS-level interrupt cost;
//  3. DMA through the shared L2 banks vs bypassing straight to DRAM
//     (the organization the BiN [7] line of work motivates);
//  4. GAM admission policy under mixed-size queue pressure (drives the
//     GAM directly, so it simulates outside the pooled sweep);
//  5. BiN buffer pinning in the NUCA L2.
constexpr Tick kInterruptOverheads[] = {50, 2000, 10000};

Points ablation_points(Context& ctx) {
  const core::ArchConfig best = core::ArchConfig::best_config();
  Points pts;
  const auto& ekf = ctx.workload("EKF-SLAM");
  core::ArchConfig per_task = best;
  per_task.force_per_task = true;
  pts.push_back({"composition: atomic", best, &ekf});
  pts.push_back({"composition: per-task", per_task, &ekf});

  for (Tick overhead : kInterruptOverheads) {
    core::ArchConfig cfg = best;
    cfg.interrupt_overhead = overhead;
    pts.push_back({"interrupt overhead " + std::to_string(overhead), cfg,
                   &ctx.workload("Denoise")});
  }

  const auto& deblur = ctx.workload("Deblur");
  core::ArchConfig bypass = best;
  bypass.mem.l2_bypass = true;
  pts.push_back({"dma through L2", best, &deblur});
  pts.push_back({"dma bypass to DRAM", bypass, &deblur});

  core::ArchConfig pinned = best;
  pinned.mem.bin_pinning = true;
  pts.push_back({"bin pinning off", best, &deblur});
  pts.push_back({"bin pinning on", pinned, &deblur});
  return pts;
}

void print_ablation(Context& ctx, Results r) {
  print_header("Ablations (design choices behind the evaluated system)",
               "composition, lightweight interrupts, L2-resident DMA");

  std::cout << "\n1) ABC composition model (EKF-SLAM, best config):\n";
  {
    const auto& a = r[0].result;
    const auto& b = r[1].result;
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
    dse::Table t({"interrupt overhead", "rel perf"});
    double base = 0;
    for (std::size_t i = 0; i < std::size(kInterruptOverheads); ++i) {
      const Tick overhead = kInterruptOverheads[i];
      const auto& res = r[2 + i].result;
      if (base == 0) base = res.performance();
      t.add_row({(overhead == 50 ? "lightweight (50 cyc)"
                                 : "OS path (" + std::to_string(overhead) +
                                       " cyc)"),
                 dse::Table::num(res.performance() / base, 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\n3) DMA data placement (Deblur, best config):\n";
  {
    const auto& through_l2 = r[5].result;
    const auto& direct = r[6].result;
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

  std::cout << "\n4) GAM admission policy (mixed-size queue pressure):\n";
  {
    // A mixed queue (small Denoise jobs + large Segmentation jobs) is where
    // the admission order matters; drive the GAM directly.
    const auto& small = ctx.workload("Denoise");
    const auto& large = ctx.workload("Segmentation");
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
      const int kJobs = 120;
      for (int j = 0; j < kJobs; ++j) {
        const auto* dfg = (j % 3 == 0) ? &large.dfg : &small.dfg;
        sys.gam().submit(dfg, in, out, sys.core_node(j % 8),
                         [&](JobId, Tick at) {
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
    const auto& r_off = r[7].result;
    const auto& r_on = r[8].result;
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

/// One row per DESIGN.md §4 artifact, in the order ara_paper prints them.
struct Figure {
  const char* id;
  /// The design points the row needs; null for the rows that simulate
  /// nothing (parameter echoes and analytical models).
  Points (*points)(Context&);
  /// Print the row's tables; `r[i]` is the result of the row's point i.
  void (*print)(Context&, Results);
};

constexpr Figure kFigures[] = {
    {"fig01", nullptr, print_fig01},
    {"intro", nullptr, print_intro},
    {"fig02", nullptr, print_fig02},
    {"fig03", nullptr, print_fig03},
    {"sec2", sec2_points, print_sec2},
    {"sec51", sec51_points, print_sec51},
    {"sec52", sec52_points, print_sec52},
    {"sec53", sec53_points, print_sec53},
    {"sec54", sec54_points, print_sec54},
    {"fig06", fig06_points, print_fig06},
    {"fig07", matrix_points, print_fig07},
    {"fig08", matrix_points, print_fig08},
    {"fig09", matrix_points, print_fig09},
    {"sec57", nullptr, print_sec57},
    {"fig10", fig10_points, print_fig10},
    {"sec4", nullptr, print_sec4},
    {"ablation", ablation_points, print_ablation},
};

constexpr unsigned kAccept =
    common::CliOptions::kJobs | common::CliOptions::kMetrics |
    common::CliOptions::kCache | common::CliOptions::kCheck;

void usage(std::ostream& os) {
  os << "usage: ara_paper [options] [id...]\n"
        "Print the paper's figures and tables (every id when none is "
        "given), in this order:\n ";
  for (const auto& f : kFigures) os << " " << f.id;
  os << "\nARA_BENCH_SCALE (default 0.5) scales workload invocation "
        "counts.\n"
     << common::CliOptions::help(kAccept);
}

/// One stderr line for the pooled sweep: how many points the rows asked
/// for, how many were simulated, read from the cache or coalesced with an
/// identical point, and the sweep's wall time against the summed per-point
/// time (their ratio is the average number of points in flight).
void print_sweep_summary(const std::vector<dse::SweepResult>& results,
                         double wall_s, unsigned jobs) {
  std::size_t cached = 0, coalesced = 0;
  double point_s = 0;
  for (const auto& r : results) {
    cached += r.from_cache;
    coalesced += r.coalesced;
    point_s += r.wall_seconds;
  }
  std::cerr << "[sweep] " << results.size() << " points requested: "
            << results.size() - cached - coalesced << " simulated, "
            << cached << " cached, " << coalesced << " coalesced; jobs="
            << dse::ParallelSweepExecutor(jobs).jobs() << ": " << wall_s
            << " s wall vs " << point_s << " s summed point time ("
            << (wall_s > 0 ? point_s / wall_s : 0)
            << "x effective parallelism)\n";
}

int run(int argc, char** argv) {
  const auto cli = common::CliOptions::parse(argc, argv, kAccept);
  if (!cli.ok()) {
    std::cerr << "error: " << cli.error << "\n";
    return 2;
  }
  std::vector<bool> chosen(std::size(kFigures), argc == 1);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      usage(std::cout);
      return 0;
    }
    const auto* figure =
        std::find_if(std::begin(kFigures), std::end(kFigures),
                     [&](const Figure& f) { return arg == f.id; });
    if (figure == std::end(kFigures)) {
      std::cerr << "error: unknown "
                << (arg.starts_with("-") ? "argument" : "figure id") << " '"
                << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
    chosen[figure - std::begin(kFigures)] = true;
  }

  double scale = 0.5;
  if (const char* s = std::getenv("ARA_BENCH_SCALE")) {
    if (!common::parse_scale(s, &scale)) {
      std::cerr << "error: ARA_BENCH_SCALE: scale must be finite and > 0, "
                   "got '"
                << s << "'\n";
      return 2;
    }
  }
  // Memory-only without --cache.
  dse::ResultCache cache(cli.cache_dir);
  if (cli.check) check::set_enabled(true);

  // Every selected row's points, row by row, in one request: the cache
  // simulates a point that several rows need once.
  Context ctx(scale);
  Points points;
  std::vector<std::size_t> first(std::size(kFigures) + 1, 0);
  for (std::size_t f = 0; f < std::size(kFigures); ++f) {
    if (chosen[f] && kFigures[f].points != nullptr) {
      for (auto& p : kFigures[f].points(ctx)) points.push_back(std::move(p));
    }
    first[f + 1] = points.size();
  }

  std::vector<dse::SweepResult> results;
  if (!points.empty()) {
    dse::SweepRequest request;
    for (const auto& p : points) request.add(p.config, *p.workload);
    request.with_jobs(cli.jobs).with_cache(&cache);
    const auto start = std::chrono::steady_clock::now();
    results = dse::run(request);
    print_sweep_summary(
        results,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count(),
        cli.jobs);
  }

  for (std::size_t f = 0; f < std::size(kFigures); ++f) {
    if (!chosen[f]) continue;
    kFigures[f].print(ctx, Results(results).subspan(
                               first[f], first[f + 1] - first[f]));
  }

  if (!cli.metrics_file.empty()) {
    std::vector<std::pair<std::string, const obs::MetricsSnapshot*>> labeled;
    for (std::size_t i = 0; i < points.size(); ++i) {
      labeled.emplace_back(points[i].label, &results[i].metrics);
    }
    std::ofstream os(cli.metrics_file);
    obs::MetricsExporter::write_labeled_json(os, labeled);
    os.close();
    if (!os) {
      std::cerr << "error: cannot write metrics to " << cli.metrics_file
                << "\n";
      return 1;
    }
    std::cerr << "[metrics] " << labeled.size() << " point snapshot(s) -> "
              << cli.metrics_file << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A scale make_benchmark rejects (say 1e12: too many invocations) is a
  // usage error, like a malformed flag; it throws before anything
  // simulates.
  try {
    return run(argc, argv);
  } catch (const ara::ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
