// A mesh router: five output ports (four directions + local ejection), each
// modelled as a SharedLink. Input buffering and VC allocation are abstracted
// into the per-hop pipeline latency; contention appears as output-port
// serialization, which is the first-order effect for the traffic patterns
// the paper studies (DMA streams to/from memory controllers).
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"
#include "sim/shared_link.h"

namespace ara::noc {

enum class Direction : std::uint8_t { kEast = 0, kWest, kNorth, kSouth, kLocal };
inline constexpr std::size_t kNumPorts = 5;

class Router {
 public:
  /// `clock`, when given, sets every port's floor (see SharedLink).
  Router(NodeId id, std::uint32_t x, std::uint32_t y,
         double link_bytes_per_cycle, double local_bytes_per_cycle,
         Tick router_latency, const sim::Simulator* clock = nullptr);

  NodeId id() const { return id_; }
  std::uint32_t x() const { return x_; }
  std::uint32_t y() const { return y_; }

  /// Output port toward `dir`. All five ports always exist; edge ports that
  /// point off-mesh are never routed to.
  sim::SharedLink& port(Direction dir) {
    return ports_[static_cast<std::size_t>(dir)];
  }
  const sim::SharedLink& port(Direction dir) const {
    return ports_[static_cast<std::size_t>(dir)];
  }

  /// Total bytes forwarded through this router (all ports).
  Bytes total_bytes() const;

 private:
  NodeId id_;
  std::uint32_t x_, y_;
  std::array<sim::SharedLink, kNumPorts> ports_;
};

}  // namespace ara::noc
