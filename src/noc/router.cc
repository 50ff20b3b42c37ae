#include "noc/router.h"

#include <string>

namespace ara::noc {

namespace {
const char* dir_name(Direction d) {
  switch (d) {
    case Direction::kEast:
      return "E";
    case Direction::kWest:
      return "W";
    case Direction::kNorth:
      return "N";
    case Direction::kSouth:
      return "S";
    case Direction::kLocal:
      return "L";
  }
  return "?";
}

sim::SharedLink make_port(NodeId id, Direction dir, double bytes_per_cycle,
                          Tick latency, const sim::Simulator* clock) {
  return sim::SharedLink("noc.r" + std::to_string(id) + "." + dir_name(dir),
                         bytes_per_cycle, latency, clock);
}
}  // namespace

Router::Router(NodeId id, std::uint32_t x, std::uint32_t y,
               double link_bytes_per_cycle, double local_bytes_per_cycle,
               Tick router_latency, const sim::Simulator* clock)
    : id_(id),
      x_(x),
      y_(y),
      ports_{make_port(id, Direction::kEast, link_bytes_per_cycle,
                       router_latency, clock),
             make_port(id, Direction::kWest, link_bytes_per_cycle,
                       router_latency, clock),
             make_port(id, Direction::kNorth, link_bytes_per_cycle,
                       router_latency, clock),
             make_port(id, Direction::kSouth, link_bytes_per_cycle,
                       router_latency, clock),
             make_port(id, Direction::kLocal, local_bytes_per_cycle,
                       router_latency, clock)} {}

Bytes Router::total_bytes() const {
  Bytes sum = 0;
  for (const auto& p : ports_) sum += p.total_bytes();
  return sum;
}

}  // namespace ara::noc
