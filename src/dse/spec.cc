#include "dse/spec.h"

#include "common/config_error.h"

namespace ara::dse {

core::ArchConfig PointSpec::to_config() const {
  // Identical construction order to ara_sim's flag parser: start from the
  // default ring design, then apply each override.
  core::ArchConfig cfg = core::ArchConfig::ring_design(
      islands, rings, static_cast<Bytes>(link_bytes));
  if (net == "proxy") {
    cfg.island.net.topology = island::SpmDmaTopology::kProxyXbar;
  } else if (net == "chain") {
    cfg.island.net.topology = island::SpmDmaTopology::kChainingXbar;
  } else {
    config_check(net == "ring", "unknown net kind '" + net +
                                    "' (expected ring|proxy|chain)");
  }
  cfg.island.spm_port_multiplier = ports;
  cfg.island.spm_sharing = sharing;
  if (mono) cfg.mode = abc::ExecutionMode::kMonolithic;
  return cfg;
}

}  // namespace ara::dse
