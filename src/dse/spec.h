// dse::PointSpec — the one source of truth for "a design point named by
// user-facing knobs" and for turning it into an ArchConfig.
//
// Two front ends name design points with the same seven knobs: the ara_sim
// CLI flags and the ara_serve wire protocol's "points" objects. Before
// this module each kept its own copy of the knob->ArchConfig
// construction; PointSpec is the single copy both consume, so a new
// ArchConfig dimension is added here once and every front end picks it
// up. The field defaults ARE the product defaults (24-island 2-ring 32B
// ring design, 1x ports, no sharing, composable mode) — CLI help and
// protocol docs both derive from these initializers. The GAM policy is
// not a knob: every workload a front end can name has one DFG, so the
// GAM's size-ordered policies always admit the queue head, as fifo does
// (ArchConfig::gam_policy stays for ablation 4 and the fuzzer).
//
// to_config() builds the ArchConfig exactly the way the ara_sim flag
// parser historically did (base ring_design, then per-knob overrides, in
// flag order), so a served point and a CLI run of the same spec are the
// same design point — and therefore, through dse::run, the same bits.
#pragma once

#include <cstdint>
#include <string>

#include "core/arch_config.h"

namespace ara::dse {

/// One design point named by the user-facing knobs; defaults mirror the
/// ara_sim CLI.
struct PointSpec {
  std::uint32_t islands = 24;
  std::string net = "ring";  // ring | proxy | chain
  std::uint32_t rings = 2;
  std::uint64_t link_bytes = 32;
  std::uint32_t ports = 1;
  bool sharing = false;
  bool mono = false;

  /// Build the ArchConfig the way ara_sim's flag parser would (base
  /// ring_design, then overrides). Throws ConfigError on an unknown net
  /// name; the result still needs ArchConfig::validate().
  core::ArchConfig to_config() const;
};

}  // namespace ara::dse
