#include "island/dma_engine.h"

#include <utility>

#include "common/config_error.h"
#include "common/units.h"
#include "power/area_model.h"
#include "power/orion_like.h"

namespace ara::island {

DmaEngine::DmaEngine(std::string name, double bytes_per_cycle,
                     Bytes chunk_bytes, const sim::Simulator* clock)
    : engine_(std::move(name), bytes_per_cycle, /*pipeline_latency=*/4,
              clock),
      chunk_(chunk_bytes) {
  config_check(chunk_bytes >= kBlockBytes,
               "DMA chunk must be at least one block");
}

double DmaEngine::dynamic_energy_j() const {
  return pj_to_j(power::kDmaPjPerByte * static_cast<double>(total_bytes()));
}

double DmaEngine::area_mm2() const { return power::kDmaEngineMm2; }

double DmaEngine::leakage_mw() const {
  return power::kLogicLeakMwPerMm2 * area_mm2();
}

}  // namespace ara::island
