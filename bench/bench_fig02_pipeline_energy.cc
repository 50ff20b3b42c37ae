// Figure 2: energy breakdown of the original OoO pipeline under a
// SPEC-like instruction mix (McPAT-style model).
// Paper shares: Fetch 8.9, Decode 6.0, Rename 12.1, Reg Files 2.7,
// Scheduler 10.8, Misc 23.7, FPU 7.9, Int ALU 13.8, Mul/Div 4.0,
// Memory 10.1 (percent).
#include <iostream>

#include "bench_util.h"
#include "dse/table.h"
#include "power/mcpat_like.h"

namespace {

constexpr double kPaperShares[] = {8.9, 6.0, 12.1, 2.7, 10.8,
                                   23.7, 7.9, 13.8, 4.0, 10.1};

void fig02() {
  using namespace ara;
  benchutil::print_header(
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

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig02();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
