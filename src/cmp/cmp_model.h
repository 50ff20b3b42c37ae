// Analytical chip-multiprocessor baseline for the paper's software
// comparisons: the 12-core 1.9 GHz Xeon E5-2420 (Fig. 10) and the 4-core
// 2 GHz Xeon E5405 (Sec. 2, and the CAMEL comparison).
//
// The model is intentionally simple — cores x frequency x parallel
// efficiency for time, package power x time for energy — because the
// paper's own numbers come from wall-socket measurements of machines we do
// not have; the workload's software cost (cycles per invocation) carries
// the per-benchmark character and is calibrated in the benchmark table
// (src/workloads/registry.cc).
#pragma once

#include <cstdint>
#include <string>

#include "workloads/workload.h"

namespace ara::cmp {

struct CmpConfig {
  std::string name = "xeon-e5-2420";
  std::uint32_t cores = 12;
  double freq_ghz = 1.9;
  /// Package power when all cores are busy (W).
  double busy_power_w = 95.0;
  /// Idle/uncore floor included while the job runs (W).
  double uncore_power_w = 18.0;

  /// Fig. 10's machine: 12-core 1.9 GHz Intel Xeon E5-2420.
  static CmpConfig xeon_e5_2420();
  /// Sec. 2's machine: 4-core 2 GHz Intel Xeon E5405.
  static CmpConfig xeon_e5405();
};

struct CmpResult {
  double seconds = 0;
  double joules = 0;
  double performance() const {  // invocations per second
    return seconds <= 0 ? 0 : jobs / seconds;
  }
  double jobs = 0;
};

class CmpModel {
 public:
  explicit CmpModel(const CmpConfig& config) : config_(config) {}

  /// Software execution of the whole workload (all invocations).
  CmpResult run(const workloads::Workload& w) const;

  const CmpConfig& config() const { return config_; }

 private:
  CmpConfig config_;
};

}  // namespace ara::cmp
