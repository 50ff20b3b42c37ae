// The SPM<->DMA network inside an ABB island (paper Sec. 3.2): moves data
// between the DMA engine and the per-ABB SPM groups, and carries chaining
// traffic between SPM groups.
//
// Three implementations:
//  - ProxyXbarNet: crossbar centered on the DMA engine. Chaining costs two
//    traversals (source SPM -> DMA -> destination SPM), serializing on the
//    DMA hub — the behaviour that makes it lose to rings on chaining-heavy
//    workloads (Sec. 5.5).
//  - ChainingXbarNet: all-to-all crossbar; single-traversal chaining but
//    cubically growing area (Sec. 5.2).
//  - RingNet: 1..K unidirectional rings of 16- or 32-byte links with one
//    stop per ABB plus a DMA stop; chunks stripe round-robin across rings
//    (Sec. 5.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "island/island_config.h"
#include "sim/shared_link.h"

namespace ara::island {

class SpmDmaNet {
 public:
  virtual ~SpmDmaNet() = default;

  /// DMA -> SPM group of ABB `dst`.
  virtual Tick to_spm(Tick ready_at, AbbId dst, Bytes bytes) = 0;
  /// SPM group of ABB `src` -> DMA.
  virtual Tick from_spm(Tick ready_at, AbbId src, Bytes bytes) = 0;
  /// Chaining: SPM group of `src` -> SPM group of `dst`, same island.
  virtual Tick chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) = 0;

  virtual SpmDmaTopology topology() const = 0;
  virtual double area_mm2() const = 0;
  /// Dynamic energy of all traffic so far, in joules.
  virtual double dynamic_energy_j() const = 0;
  virtual double leakage_mw() const = 0;
  virtual Bytes total_bytes() const = 0;

  std::uint32_t num_abbs() const { return num_abbs_; }

 protected:
  explicit SpmDmaNet(std::uint32_t num_abbs) : num_abbs_(num_abbs) {}
  std::uint32_t num_abbs_;
};

/// Factory from config. `name` prefixes stat identifiers. `clock`, when
/// given, sets every link's floor (see SharedLink).
std::unique_ptr<SpmDmaNet> make_spm_dma_net(
    const std::string& name, const SpmDmaNetConfig& config,
    std::uint32_t num_abbs, const sim::Simulator* clock = nullptr);

/// --- concrete implementations (exposed for unit tests) ---

class ProxyXbarNet final : public SpmDmaNet {
 public:
  ProxyXbarNet(const std::string& name, const SpmDmaNetConfig& config,
               std::uint32_t num_abbs, const sim::Simulator* clock = nullptr);

  Tick to_spm(Tick ready_at, AbbId dst, Bytes bytes) override;
  Tick from_spm(Tick ready_at, AbbId src, Bytes bytes) override;
  Tick chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) override;

  SpmDmaTopology topology() const override {
    return SpmDmaTopology::kProxyXbar;
  }
  double area_mm2() const override;
  double dynamic_energy_j() const override;
  double leakage_mw() const override;
  Bytes total_bytes() const override;

  double dma_hub_utilization(Tick elapsed) const {
    return hub_.utilization(elapsed);
  }

 private:
  SpmDmaNetConfig config_;
  /// The DMA-side hub port every transfer must cross.
  sim::SharedLink hub_;
  /// Per-SPM-group ports.
  std::vector<sim::SharedLink> spm_ports_;
  Tick traversal_latency_;
};

class ChainingXbarNet final : public SpmDmaNet {
 public:
  ChainingXbarNet(const std::string& name, const SpmDmaNetConfig& config,
                  std::uint32_t num_abbs,
                  const sim::Simulator* clock = nullptr);

  Tick to_spm(Tick ready_at, AbbId dst, Bytes bytes) override;
  Tick from_spm(Tick ready_at, AbbId src, Bytes bytes) override;
  Tick chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) override;

  SpmDmaTopology topology() const override {
    return SpmDmaTopology::kChainingXbar;
  }
  double area_mm2() const override;
  double dynamic_energy_j() const override;
  double leakage_mw() const override;
  Bytes total_bytes() const override;

 private:
  SpmDmaNetConfig config_;
  /// Port 0 = DMA; ports 1..N = SPM groups. Output-side contention only.
  std::vector<sim::SharedLink> ports_;
  Tick traversal_latency_;
};

class RingNet final : public SpmDmaNet {
 public:
  RingNet(const std::string& name, const SpmDmaNetConfig& config,
          std::uint32_t num_abbs, const sim::Simulator* clock = nullptr);

  Tick to_spm(Tick ready_at, AbbId dst, Bytes bytes) override;
  Tick from_spm(Tick ready_at, AbbId src, Bytes bytes) override;
  Tick chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) override;

  SpmDmaTopology topology() const override { return SpmDmaTopology::kRing; }
  double area_mm2() const override;
  double dynamic_energy_j() const override;
  double leakage_mw() const override;
  Bytes total_bytes() const override;

  std::uint32_t num_rings() const { return config_.num_rings; }
  std::uint32_t stops() const { return num_abbs_ + 1; }
  std::uint64_t byte_hops() const { return byte_hops_; }
  /// Peak link utilization across all ring segments.
  double max_link_utilization(Tick elapsed) const;

 private:
  /// Stop index: 0 = DMA, 1..N = ABB SPM groups.
  Tick transfer(Tick ready_at, std::uint32_t from_stop, std::uint32_t to_stop,
                Bytes bytes);

  SpmDmaNetConfig config_;
  /// links_[ring][stop] carries traffic from `stop` to `stop+1 (mod S)`.
  std::vector<std::vector<sim::SharedLink>> links_;
  std::uint32_t next_ring_ = 0;
  std::uint64_t byte_hops_ = 0;
  Bytes total_bytes_ = 0;
};

}  // namespace ara::island
