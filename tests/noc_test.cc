// Unit tests for the mesh NoC: topology, XY routing, contention, accounting.
#include <gtest/gtest.h>

#include "common/config_error.h"
#include "noc/mesh.h"

namespace ara::noc {
namespace {

MeshConfig small_config() {
  MeshConfig c;
  c.width = 4;
  c.height = 4;
  c.link_bytes_per_cycle = 16;
  c.local_port_bytes_per_cycle = 16;
  c.router_latency = 2;
  return c;
}

TEST(Mesh, NodeCoordinatesRoundTrip) {
  Mesh m(small_config());
  EXPECT_EQ(m.node_count(), 16u);
  for (std::uint32_t y = 0; y < 4; ++y) {
    for (std::uint32_t x = 0; x < 4; ++x) {
      const NodeId n = m.node_at(x, y);
      EXPECT_EQ(m.x_of(n), x);
      EXPECT_EQ(m.y_of(n), y);
    }
  }
}

TEST(Mesh, HopCountIsManhattan) {
  Mesh m(small_config());
  EXPECT_EQ(m.hops(m.node_at(0, 0), m.node_at(0, 0)), 0u);
  EXPECT_EQ(m.hops(m.node_at(0, 0), m.node_at(3, 0)), 3u);
  EXPECT_EQ(m.hops(m.node_at(0, 0), m.node_at(3, 3)), 6u);
  EXPECT_EQ(m.hops(m.node_at(2, 1), m.node_at(1, 3)), 3u);
}

TEST(Mesh, TransferLatencyScalesWithDistance) {
  Mesh m(small_config());
  const Tick near = m.transfer(0, m.node_at(0, 0), m.node_at(1, 0), 64);
  Mesh m2(small_config());
  const Tick far = m2.transfer(0, m2.node_at(0, 0), m2.node_at(3, 3), 64);
  EXPECT_GT(far, near);
}

TEST(Mesh, ZeroByteTransferIsFree) {
  Mesh m(small_config());
  EXPECT_EQ(m.transfer(7, 0, 5, 0), 7u);
  EXPECT_EQ(m.total_packets(), 0u);
}

TEST(Mesh, SelfTransferUsesOnlyLocalPort) {
  Mesh m(small_config());
  const Tick t = m.transfer(0, 5, 5, 64);
  // One ejection: occupancy 4 cycles (64B at 16B/c) + router latency 2.
  EXPECT_EQ(t, 6u);
}

TEST(Mesh, ContentionSerializesSameRoute) {
  Mesh m(small_config());
  const NodeId a = m.node_at(0, 0), b = m.node_at(3, 0);
  const Tick t1 = m.transfer(0, a, b, 1024);
  const Tick t2 = m.transfer(0, a, b, 1024);
  EXPECT_GT(t2, t1);  // queued behind the first on every hop
}

TEST(Mesh, DisjointRoutesDoNotInterfere) {
  Mesh m(small_config());
  const Tick t1 = m.transfer(0, m.node_at(0, 0), m.node_at(1, 0), 256);
  const Tick t2 = m.transfer(0, m.node_at(0, 3), m.node_at(1, 3), 256);
  EXPECT_EQ(t1, t2);  // same shape, different rows
}

TEST(Mesh, FlitAccounting) {
  Mesh m(small_config());
  m.transfer(0, m.node_at(0, 0), m.node_at(2, 0), 64);
  // 64B = 4 flits of 16B; path = 2 hops + ejection = 3 links.
  EXPECT_EQ(m.total_flit_hops(), 12u);
  EXPECT_EQ(m.total_bytes_injected(), 64u);
  EXPECT_EQ(m.total_packets(), 1u);
}

TEST(Mesh, ControlMessageIsOneFlit) {
  Mesh m(small_config());
  m.send_control(0, m.node_at(0, 0), m.node_at(1, 0));
  EXPECT_EQ(m.total_flit_hops(), 2u);  // 1 flit x (1 hop + ejection)
}

TEST(Mesh, UtilizationReflectsTraffic) {
  Mesh m(small_config());
  EXPECT_DOUBLE_EQ(m.max_link_utilization(100), 0.0);
  const Tick end = m.transfer(0, m.node_at(0, 0), m.node_at(3, 3), 4096);
  EXPECT_GT(m.max_link_utilization(end), 0.2);
  EXPECT_LE(m.max_link_utilization(end), 1.0);
}

TEST(Mesh, RejectsOutOfRangeEndpoints) {
  Mesh m(small_config());
  EXPECT_THROW(m.transfer(0, 0, 99, 64), ConfigError);
}

TEST(Mesh, ChunkingPipelinesLargeTransfers) {
  // A large transfer should take roughly size/bw + path latency, not
  // path_length * size/bw (store-and-forward of the whole payload).
  Mesh m(small_config());
  const NodeId a = m.node_at(0, 0), b = m.node_at(3, 3);
  const Bytes size = 16 * 1024;
  const Tick t = m.transfer(0, a, b, size);
  const double serialization = static_cast<double>(size) / 16.0;
  EXPECT_LT(static_cast<double>(t), serialization * 2.0);
  EXPECT_GE(static_cast<double>(t), serialization);
}

TEST(Router, PortsExistAndAccumulate) {
  Mesh m(small_config());
  m.transfer(0, m.node_at(0, 0), m.node_at(1, 0), 128);
  const Router& r = m.router(m.node_at(0, 0));
  EXPECT_EQ(r.port(Direction::kEast).total_bytes(), 128u);
  EXPECT_GT(r.total_bytes(), 0u);
}

TEST(Mesh, RejectsZeroDimensions) {
  MeshConfig c = small_config();
  c.width = 0;
  EXPECT_THROW(Mesh m(c), ConfigError);
}

TEST(Mesh, RejectsZeroFlitBytes) {
  MeshConfig c = small_config();
  c.flit_bytes = 0;  // the divisor in every transfer's flit count
  EXPECT_THROW(Mesh m(c), ConfigError);
}

}  // namespace
}  // namespace ara::noc
