#include "noc/mesh.h"

#include <algorithm>
#include <cstdlib>

#include "common/config_error.h"

namespace ara::noc {

Mesh::Mesh(const MeshConfig& config, const sim::Simulator* clock)
    : config_(config) {
  config_check(config.width > 0 && config.height > 0,
               "mesh dimensions must be positive");
  config_check(config.chunk_bytes > 0, "mesh chunk size must be positive");
  config_check(config.flit_bytes > 0, "mesh flit size must be positive");
  routers_.reserve(static_cast<std::size_t>(config.width) * config.height);
  for (std::uint32_t y = 0; y < config.height; ++y) {
    for (std::uint32_t x = 0; x < config.width; ++x) {
      routers_.emplace_back(node_at(x, y), x, y, config.link_bytes_per_cycle,
                            config.local_port_bytes_per_cycle,
                            config.router_latency, clock);
    }
  }
}

std::uint32_t Mesh::hops(NodeId src, NodeId dst) const {
  const auto dx = static_cast<std::int64_t>(x_of(src)) - x_of(dst);
  const auto dy = static_cast<std::int64_t>(y_of(src)) - y_of(dst);
  return static_cast<std::uint32_t>(std::llabs(dx) + std::llabs(dy));
}

void Mesh::route(NodeId src, NodeId dst) {
  route_.clear();
  const auto hop = [this](NodeId n, Direction d) {
    route_.push_back({&routers_[n].port(d), n});
  };
  std::uint32_t x = x_of(src), y = y_of(src);
  const std::uint32_t tx = x_of(dst), ty = y_of(dst);
  // X first, then Y (deterministic, deadlock-free dimension order).
  while (x != tx) {
    hop(node_at(x, y), tx > x ? Direction::kEast : Direction::kWest);
    x = tx > x ? x + 1 : x - 1;
  }
  while (y != ty) {
    hop(node_at(x, y), ty > y ? Direction::kSouth : Direction::kNorth);
    y = ty > y ? y + 1 : y - 1;
  }
  hop(dst, Direction::kLocal);  // ejection
}

Tick Mesh::transfer(Tick ready_at, NodeId src, NodeId dst, Bytes bytes) {
  config_check(src < node_count() && dst < node_count(),
               "mesh transfer endpoints out of range");
  if (bytes == 0) return ready_at;
  route(src, dst);

  // Flit accounting for the energy model: every chunk is flitized on every
  // hop it traverses.
  const auto flits_total = ceil_div<Bytes>(bytes, config_.flit_bytes);
  flit_hops_ += flits_total * route_.size();
  bytes_injected_ += bytes;
  ++packets_;
  if (!router_flits_.empty()) {
    for (const auto& hop : route_) router_flits_[hop.router]->inc(flits_total);
  }

  Tick last_arrival = ready_at;
  Bytes remaining = bytes;
  // Chunks pipeline: chunk n enters hop h as soon as the link is free; the
  // per-link FIFO (SharedLink) provides serialization at each hop.
  Tick chunk_ready = ready_at;
  while (remaining > 0) {
    const Bytes chunk = std::min<Bytes>(remaining, config_.chunk_bytes);
    Tick t = chunk_ready;
    for (const auto& hop : route_) t = hop.link->submit(t, chunk);
    last_arrival = std::max(last_arrival, t);
    remaining -= chunk;
    // The next chunk can enter the first hop immediately; SharedLink FIFO
    // order enforces serialization on each link.
  }
  if (transfer_latency_h_ != nullptr) {
    transfer_latency_h_->record(last_arrival - ready_at);
  }
  return last_arrival;
}

void Mesh::set_stats(sim::StatRegistry& reg) {
  transfer_latency_h_ = &reg.histogram("noc.transfer_latency",
                                       /*bucket_width=*/16, /*buckets=*/128);
  router_flits_.assign(routers_.size(), nullptr);
  for (std::size_t n = 0; n < routers_.size(); ++n) {
    router_flits_[n] =
        &reg.counter("noc.router." + std::to_string(n) + ".flits");
  }
}

double Mesh::max_link_utilization(Tick elapsed) const {
  double peak = 0.0;
  for (const auto& r : routers_) {
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      peak = std::max(
          peak, r.port(static_cast<Direction>(p)).utilization(elapsed));
    }
  }
  return peak;
}

}  // namespace ara::noc
