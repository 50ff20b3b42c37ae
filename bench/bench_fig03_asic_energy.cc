// Figure 3: pipeline energy breakdown when custom ASIC replaces the
// compute units (Int ALU / FPU / Mul-Div).
// Paper: savings slice 24.9%; FPU 0.4%, Int ALU 0.2%, Mul/Div 0.2%;
// computation (compute + memory) now ~11% of the original energy.
#include <iostream>

#include "bench_util.h"
#include "dse/table.h"
#include "power/mcpat_like.h"

namespace {

void fig03() {
  using namespace ara;
  benchutil::print_header(
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

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig03();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
