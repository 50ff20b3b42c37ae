// Sec. 5.3: ring width and ring count. The paper finds a 2-ring network of
// 16-byte links performs almost identically to a 1-ring network of 32-byte
// links (with simpler routers), because the SPM<->DMA network moves data
// at cache-block/half-block granularity, so narrowing below a half block
// buys nothing.
#include <iostream>

#include "bench_util.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void sec53() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 5.3 (ring width & ring count)",
      "2-ring 16B ~= 1-ring 32B; multiple narrow rings only help when "
      "packets are smaller than the ring width");

  const double scale = benchutil::bench_scale();
  struct Design {
    const char* label;
    std::uint32_t rings;
    Bytes width;
  };
  const Design designs[] = {
      {"1-ring,16B", 1, 16}, {"2-ring,16B", 2, 16}, {"1-ring,32B", 1, 32},
      {"2-ring,32B", 2, 32}, {"3-ring,32B", 3, 32}, {"1-ring,64B", 1, 64},
  };

  std::vector<std::string> headers = {"benchmark"};
  for (const auto& d : designs) headers.push_back(d.label);
  dse::Table t(std::move(headers));

  for (const char* name : {"Denoise", "Segmentation", "EKF-SLAM"}) {
    auto wl = workloads::make_benchmark(name, scale);
    std::vector<std::string> row = {name};
    double base = 0;
    for (std::size_t i = 0; i < std::size(designs); ++i) {
      const auto cfg =
          core::ArchConfig::ring_design(3, designs[i].rings, designs[i].width);
      const auto r = benchutil::metered_point(
          std::string(name) + ", " + designs[i].label, cfg, wl);
      if (i == 0) base = r.performance();
      row.push_back(dse::Table::num(benchutil::norm(r.performance(), base), 3));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\n(2-ring,16B should track 1-ring,32B closely; widening a "
               "single ring to 64B buys little beyond block granularity)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec53();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
