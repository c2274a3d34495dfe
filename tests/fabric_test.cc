// Simulated fabric: delivery, ordering, metering, shutdown semantics.
#include <gtest/gtest.h>

#include <thread>

#include "src/net/fabric.h"

namespace orion {
namespace {

Message Make(WorkerId from, WorkerId to, u32 tag, size_t payload_bytes = 0) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = MsgKind::kControl;
  m.tag = tag;
  m.payload.assign(payload_bytes, 0);
  return m;
}

TEST(Fabric, DeliversToTheRightEndpoint) {
  Fabric fabric(2);
  fabric.Send(Make(kMasterRank, 0, 1));
  fabric.Send(Make(kMasterRank, 1, 2));
  EXPECT_EQ(fabric.Recv(0)->tag, 1u);
  EXPECT_EQ(fabric.Recv(1)->tag, 2u);
}

TEST(Fabric, InOrderPerLink) {
  Fabric fabric(1);
  for (u32 i = 0; i < 100; ++i) {
    fabric.Send(Make(kMasterRank, 0, i));
  }
  for (u32 i = 0; i < 100; ++i) {
    EXPECT_EQ(fabric.Recv(0)->tag, i);
  }
}

TEST(Fabric, MasterEndpointWorks) {
  Fabric fabric(2);
  fabric.Send(Make(0, kMasterRank, 7));
  EXPECT_EQ(fabric.Recv(kMasterRank)->tag, 7u);
}

TEST(Fabric, TryRecvNonBlocking) {
  Fabric fabric(1);
  EXPECT_FALSE(fabric.TryRecv(0).has_value());
  fabric.Send(Make(kMasterRank, 0, 3));
  EXPECT_TRUE(fabric.TryRecv(0).has_value());
}

TEST(Fabric, MetersBytesAndMessages) {
  Fabric fabric(1);
  fabric.Send(Make(kMasterRank, 0, 0, 1000));
  fabric.Send(Make(kMasterRank, 0, 0, 500));
  const auto stats = fabric.Stats();
  EXPECT_EQ(stats.messages_sent, 2u);
  // WireSize adds a 32-byte header per message.
  EXPECT_EQ(stats.bytes_sent, 1000u + 500u + 2 * 32u);
}

TEST(Fabric, VirtualCostAccumulates) {
  NetCostModel model;
  model.latency_us = 100.0;
  model.bandwidth_bps = 8e6;  // 1 MB/s
  Fabric fabric(1, model);
  fabric.Send(Make(kMasterRank, 0, 0, 10000 - 32));
  const auto stats = fabric.Stats();
  // 100us latency + 10000 bytes at 1MB/s = 0.0001 + 0.01.
  EXPECT_NEAR(stats.virtual_net_seconds, 0.0101, 1e-4);
}

TEST(Fabric, ResetStatsClears) {
  Fabric fabric(1);
  fabric.Send(Make(kMasterRank, 0, 0, 10));
  fabric.ResetStats();
  EXPECT_EQ(fabric.Stats().messages_sent, 0u);
}

TEST(Fabric, ShutdownUnblocksReceivers) {
  Fabric fabric(1);
  std::thread receiver([&] { EXPECT_FALSE(fabric.Recv(0).has_value()); });
  fabric.Shutdown();
  receiver.join();
}

TEST(Fabric, ConcurrentSendersAllDeliver) {
  Fabric fabric(1);
  constexpr int kSenders = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&fabric, s] {
      for (int i = 0; i < kEach; ++i) {
        Message m;
        m.from = kMasterRank;
        m.to = 0;
        m.kind = MsgKind::kControl;
        m.tag = static_cast<u32>(s);
        fabric.Send(std::move(m));
      }
    });
  }
  for (auto& t : senders) {
    t.join();
  }
  int received = 0;
  while (fabric.TryRecv(0).has_value()) {
    ++received;
  }
  EXPECT_EQ(received, kSenders * kEach);
}

}  // namespace
}  // namespace orion
