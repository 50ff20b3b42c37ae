// Tests for the DSE harness: named config points, dse::run, tables, the
// system report and CSV export.
#include <gtest/gtest.h>

#include <sstream>

#include "core/system.h"
#include "dse/report.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace ara::dse {
namespace {

TEST(Sweep, PaperNetworkConfigsShape) {
  const auto points = paper_network_configs(6);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points[0].label, "proxy-xbar");
  EXPECT_EQ(points[0].config.island.net.topology,
            island::SpmDmaTopology::kProxyXbar);
  EXPECT_EQ(points[1].label, "1-ring,16B");
  EXPECT_EQ(points[1].config.island.net.link_bytes, 16u);
  EXPECT_EQ(points[4].config.island.net.num_rings, 3u);
  for (const auto& p : points) {
    EXPECT_EQ(p.config.num_islands, 6u);
    EXPECT_NO_THROW(p.config.validate());
  }
}

TEST(Sweep, PaperIslandCounts) {
  const auto& counts = paper_island_counts();
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{3, 6, 12, 24}));
  for (std::uint32_t c : counts) EXPECT_EQ(120 % c, 0u);
}

TEST(Sweep, RunRequestPreservesOrder) {
  auto wl = workloads::make_benchmark("Denoise", 0.03);
  const auto points = paper_network_configs(6);
  const auto results =
      run(SweepRequest{}.add_points({points[0], points[3]}, wl));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].result.jobs, wl.invocations);
  EXPECT_EQ(results[1].result.jobs, wl.invocations);
  EXPECT_NE(results[0].result.config, results[1].result.config);
  EXPECT_FALSE(results[0].from_cache);  // no cache on the request
  EXPECT_GT(results[0].events, 0u);
}

TEST(Sweep, RequestBuildersCompose) {
  auto wl = workloads::make_benchmark("Denoise", 0.03);
  ResultCache cache;
  SweepRequest req;
  req.add(core::ArchConfig::paper_baseline(6), wl)
      .add_points(paper_network_configs(3), wl)
      .with_jobs(2)
      .with_cache(&cache);
  EXPECT_EQ(req.sweep.size(), 6u);
  EXPECT_EQ(req.jobs, 2u);
  EXPECT_EQ(req.cache, &cache);
  for (const auto& job : req.sweep) EXPECT_EQ(job.workload, &wl);
}

TEST(Table, AlignsAndPrintsRows) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide-cell", "x"});  // short row padded
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // 4 lines: header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.185), "18.5%");
}

// ---- report ----

TEST(SystemReport, AggregatesAndPrints) {
  core::System sys(core::ArchConfig::ring_design(6, 2, 32));
  auto w = workloads::make_benchmark("Segmentation", 0.1);
  const auto result = sys.run(w);
  dse::SystemReport report(sys, result);

  // A ring design has every class but the proxy hub, each busy on average;
  // classes come most saturated first, ties in Resource order.
  const auto& classes = report.resources();
  ASSERT_EQ(classes.size(), 7u);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const auto& c = classes[i];
    EXPECT_GT(c.mean_utilization, 0.0) << resource_name(c.resource);
    if (i == 0) continue;
    const auto& prev = classes[i - 1];
    EXPECT_TRUE(prev.peak_utilization > c.peak_utilization ||
                (prev.peak_utilization == c.peak_utilization &&
                 prev.resource < c.resource))
        << resource_name(prev.resource) << " before "
        << resource_name(c.resource);
  }

  std::ostringstream os;
  report.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("per-island utilization"), std::string::npos);
  EXPECT_NE(out.find("GAM:"), std::string::npos);
  EXPECT_NE(out.find("NoC mesh links"), std::string::npos);
  EXPECT_NE(out.find("binding resource: " +
                     std::string(resource_name(report.binding().resource)) +
                     " at " + Table::pct(report.binding().peak_utilization) +
                     "\n"),
            std::string::npos);
}

// ---- CSV ----

TEST(TableCsv, EscapesCommasAndFormats) {
  dse::Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,value\nplain,1\n\"with,comma\",2\n");
}

}  // namespace
}  // namespace ara::dse
