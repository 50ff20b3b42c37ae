// 2-D mesh NoC with dimension-order (XY) routing and reservation-based
// contention modelling.
//
// transfer() moves a payload from one node to another: the payload is split
// into chunks (default one cache block) and each chunk reserves, in order,
// the output-port links along the XY route. Chunks pipeline across hops
// (chunk i+1 can occupy hop h while chunk i occupies hop h+1), giving
// store-and-forward behaviour at chunk granularity. Reservations are made
// at submit time for the whole path, so backpressure is approximated by
// FIFO queueing at each link rather than credit stalls; this matches the
// fluid-traffic abstraction used throughout the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "noc/noc_config.h"
#include "noc/router.h"
#include "sim/stats.h"

namespace ara::noc {

class Mesh {
 public:
  /// `clock`, when given, sets every router port's floor (see SharedLink).
  explicit Mesh(const MeshConfig& config,
                const sim::Simulator* clock = nullptr);

  const MeshConfig& config() const { return config_; }
  std::uint32_t width() const { return config_.width; }
  std::uint32_t height() const { return config_.height; }
  std::size_t node_count() const { return routers_.size(); }

  NodeId node_at(std::uint32_t x, std::uint32_t y) const {
    return y * config_.width + x;
  }
  std::uint32_t x_of(NodeId n) const { return n % config_.width; }
  std::uint32_t y_of(NodeId n) const { return n / config_.width; }

  Router& router(NodeId n) { return routers_[n]; }
  const Router& router(NodeId n) const { return routers_[n]; }

  /// Number of hops on the XY route between two nodes (0 when equal).
  std::uint32_t hops(NodeId src, NodeId dst) const;

  /// Move `bytes` from `src` to `dst`, earliest start `ready_at`.
  /// Returns the arrival tick of the last byte at `dst`'s local port.
  /// Also accounts flit-hops for the Orion-style energy model.
  Tick transfer(Tick ready_at, NodeId src, NodeId dst, Bytes bytes);

  /// Send a small control message (one flit); convenience wrapper.
  Tick send_control(Tick ready_at, NodeId src, NodeId dst) {
    return transfer(ready_at, src, dst, config_.flit_bytes);
  }

  /// --- accounting for power/energy models ---
  std::uint64_t total_flit_hops() const { return flit_hops_; }
  Bytes total_bytes_injected() const { return bytes_injected_; }
  std::uint64_t total_packets() const { return packets_; }

  /// Peak per-link utilization across the mesh over `elapsed` ticks.
  double max_link_utilization(Tick elapsed) const;

  /// Install live instrumentation into `reg`: a "noc.transfer_latency"
  /// histogram plus a "noc.router.<n>.flits" counter per router (flits
  /// forwarded through that router, all ports). Recording is deterministic,
  /// so stats-on vs stats-off runs produce identical timing.
  void set_stats(sim::StatRegistry& reg);

 private:
  /// One output port on an XY route, with the router it belongs to. The
  /// port lives in routers_, which never reallocates after construction.
  struct Hop {
    sim::SharedLink* link;
    NodeId router;
  };
  /// Fill route_ with the XY route from `src` to `dst`, ending with the
  /// destination's local ejection port.
  void route(NodeId src, NodeId dst);

  MeshConfig config_;
  std::vector<Router> routers_;
  /// Scratch for route(), reused by every transfer so none allocates.
  std::vector<Hop> route_;
  std::uint64_t flit_hops_ = 0;
  Bytes bytes_injected_ = 0;
  std::uint64_t packets_ = 0;
  /// Live instrumentation (null until set_stats).
  sim::Histogram* transfer_latency_h_ = nullptr;
  std::vector<sim::Counter*> router_flits_;
};

}  // namespace ara::noc
