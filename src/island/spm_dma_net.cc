#include "island/spm_dma_net.h"

#include <algorithm>
#include <cmath>

#include "common/config_error.h"
#include "common/units.h"
#include "power/area_model.h"
#include "power/orion_like.h"

namespace ara::island {

const char* topology_name(SpmDmaTopology t) {
  switch (t) {
    case SpmDmaTopology::kProxyXbar:
      return "proxy-xbar";
    case SpmDmaTopology::kChainingXbar:
      return "chaining-xbar";
    case SpmDmaTopology::kRing:
      return "ring";
  }
  return "?";
}

std::unique_ptr<SpmDmaNet> make_spm_dma_net(const std::string& name,
                                            const SpmDmaNetConfig& config,
                                            std::uint32_t num_abbs,
                                            const sim::Simulator* clock) {
  config_check(num_abbs > 0, "island needs at least one ABB");
  config_check(config.link_bytes > 0, "SPM<->DMA link width must be positive");
  switch (config.topology) {
    case SpmDmaTopology::kProxyXbar:
      return std::make_unique<ProxyXbarNet>(name, config, num_abbs, clock);
    case SpmDmaTopology::kChainingXbar:
      return std::make_unique<ChainingXbarNet>(name, config, num_abbs,
                                               clock);
    case SpmDmaTopology::kRing:
      config_check(config.num_rings > 0, "ring network needs >= 1 ring");
      return std::make_unique<RingNet>(name, config, num_abbs, clock);
  }
  throw ConfigError("unknown SPM<->DMA topology");
}

namespace {
/// Crossbar traversal latency grows logarithmically with port count
/// (mux tree depth).
Tick xbar_latency(Tick base, std::uint32_t ports) {
  return base + static_cast<Tick>(std::ceil(std::log2(
             std::max<std::uint32_t>(2, ports))));
}
}  // namespace

// ---------------------------------------------------------------- proxy

ProxyXbarNet::ProxyXbarNet(const std::string& name,
                           const SpmDmaNetConfig& config,
                           std::uint32_t num_abbs, const sim::Simulator* clock)
    : SpmDmaNet(num_abbs),
      config_(config),
      hub_(name + ".hub", static_cast<double>(config.link_bytes), 0, clock),
      traversal_latency_(xbar_latency(config.xbar_base_latency, num_abbs + 1)) {
  spm_ports_.reserve(num_abbs);
  for (std::uint32_t i = 0; i < num_abbs; ++i) {
    spm_ports_.emplace_back(name + ".p" + std::to_string(i),
                            static_cast<double>(config.link_bytes), 0, clock);
  }
}

Tick ProxyXbarNet::to_spm(Tick ready_at, AbbId dst, Bytes bytes) {
  Tick t = hub_.submit(ready_at, bytes);
  t = spm_ports_[dst].submit(t, bytes);
  return t + traversal_latency_;
}

Tick ProxyXbarNet::from_spm(Tick ready_at, AbbId src, Bytes bytes) {
  Tick t = spm_ports_[src].submit(ready_at, bytes);
  t = hub_.submit(t, bytes);
  return t + traversal_latency_;
}

Tick ProxyXbarNet::chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) {
  // Two traversals through the DMA hub (Sec. 3.2: "sending data from the
  // source SPM to the DMA, then to the destination SPM").
  const Tick at_dma = from_spm(ready_at, src, bytes);
  return to_spm(at_dma, dst, bytes);
}

double ProxyXbarNet::area_mm2() const {
  return power::proxy_xbar_area_mm2(num_abbs_, config_.link_bytes);
}

double ProxyXbarNet::dynamic_energy_j() const {
  return pj_to_j(power::xbar_pj_per_byte(num_abbs_ + 1) *
                 static_cast<double>(total_bytes()));
}

double ProxyXbarNet::leakage_mw() const {
  return power::kLogicLeakMwPerMm2 * area_mm2();
}

Bytes ProxyXbarNet::total_bytes() const {
  // Count hub traffic: every transfer crosses the hub exactly once per
  // traversal, so this reflects switched data.
  return hub_.total_bytes();
}

// ------------------------------------------------------------- chaining

ChainingXbarNet::ChainingXbarNet(const std::string& name,
                                 const SpmDmaNetConfig& config,
                                 std::uint32_t num_abbs,
                                 const sim::Simulator* clock)
    : SpmDmaNet(num_abbs),
      config_(config),
      traversal_latency_(xbar_latency(config.xbar_base_latency, num_abbs + 1)) {
  ports_.reserve(num_abbs + 1);
  for (std::uint32_t i = 0; i <= num_abbs; ++i) {
    ports_.emplace_back(name + ".p" + std::to_string(i),
                        static_cast<double>(config.link_bytes), 0, clock);
  }
}

Tick ChainingXbarNet::to_spm(Tick ready_at, AbbId dst, Bytes bytes) {
  // Output-port contention at the destination SPM group.
  return ports_[dst + 1].submit(ready_at, bytes) + traversal_latency_;
}

Tick ChainingXbarNet::from_spm(Tick ready_at, AbbId src, Bytes bytes) {
  (void)src;
  // Output port is the DMA side (port 0).
  return ports_[0].submit(ready_at, bytes) + traversal_latency_;
}

Tick ChainingXbarNet::chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) {
  (void)src;
  // Single traversal, contending only on the destination output port.
  return ports_[dst + 1].submit(ready_at, bytes) + traversal_latency_;
}

double ChainingXbarNet::area_mm2() const {
  return power::chaining_xbar_area_mm2(num_abbs_, config_.link_bytes);
}

double ChainingXbarNet::dynamic_energy_j() const {
  return pj_to_j(power::xbar_pj_per_byte(num_abbs_ + 1) *
                 static_cast<double>(total_bytes()));
}

double ChainingXbarNet::leakage_mw() const {
  return power::kLogicLeakMwPerMm2 * area_mm2();
}

Bytes ChainingXbarNet::total_bytes() const {
  Bytes sum = 0;
  for (const auto& p : ports_) sum += p.total_bytes();
  return sum;
}

// ----------------------------------------------------------------- ring

RingNet::RingNet(const std::string& name, const SpmDmaNetConfig& config,
                 std::uint32_t num_abbs, const sim::Simulator* clock)
    : SpmDmaNet(num_abbs), config_(config) {
  const std::uint32_t S = stops();
  links_.reserve(config.num_rings);
  for (std::uint32_t r = 0; r < config.num_rings; ++r) {
    std::vector<sim::SharedLink> ring;
    ring.reserve(S);
    for (std::uint32_t s = 0; s < S; ++s) {
      ring.emplace_back(
          name + ".r" + std::to_string(r) + ".l" + std::to_string(s),
          static_cast<double>(config.link_bytes), config.ring_hop_latency,
          clock);
    }
    links_.push_back(std::move(ring));
  }
}

Tick RingNet::transfer(Tick ready_at, std::uint32_t from_stop,
                       std::uint32_t to_stop, Bytes bytes) {
  if (bytes == 0 || from_stop == to_stop) return ready_at;
  const std::uint32_t S = stops();
  total_bytes_ += bytes;

  Tick last = ready_at;
  Bytes remaining = bytes;
  while (remaining > 0) {
    const Bytes chunk = std::min<Bytes>(remaining, kBlockBytes);
    // Stripe chunks round-robin across rings (Sec. 5.3: multiple narrow
    // rings transmit multiple flits simultaneously).
    auto& ring = links_[next_ring_];
    next_ring_ = (next_ring_ + 1) % config_.num_rings;

    Tick t = ready_at;
    std::uint32_t s = from_stop;
    std::uint32_t hops = 0;
    while (s != to_stop) {
      t = ring[s].submit(t, chunk);
      s = (s + 1) % S;
      ++hops;
    }
    byte_hops_ += static_cast<std::uint64_t>(chunk) * hops;
    last = std::max(last, t);
    remaining -= chunk;
  }
  return last;
}

Tick RingNet::to_spm(Tick ready_at, AbbId dst, Bytes bytes) {
  return transfer(ready_at, 0, dst + 1, bytes);
}

Tick RingNet::from_spm(Tick ready_at, AbbId src, Bytes bytes) {
  return transfer(ready_at, src + 1, 0, bytes);
}

Tick RingNet::chain(Tick ready_at, AbbId src, AbbId dst, Bytes bytes) {
  return transfer(ready_at, src + 1, dst + 1, bytes);
}

double RingNet::area_mm2() const {
  return power::ring_area_mm2(config_.link_bytes, stops(),
                              config_.num_rings);
}

double RingNet::dynamic_energy_j() const {
  return pj_to_j(power::kRingPjPerByteHop * static_cast<double>(byte_hops_));
}

double RingNet::leakage_mw() const {
  return power::kLogicLeakMwPerMm2 * area_mm2();
}

Bytes RingNet::total_bytes() const { return total_bytes_; }

double RingNet::max_link_utilization(Tick elapsed) const {
  double peak = 0.0;
  for (const auto& ring : links_) {
    for (const auto& link : ring) {
      peak = std::max(peak, link.utilization(elapsed));
    }
  }
  return peak;
}

}  // namespace ara::island
