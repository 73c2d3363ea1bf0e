#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace cgc {
namespace {

SiteId S(std::uint64_t v) { return SiteId{v}; }

wire::WireMessage ping(MessageKind kind) {
  return wire::WireMessage{kind, wire::ControlPing{}};
}

wire::WireMessage transfer(MessageKind kind, std::uint64_t id) {
  return wire::WireMessage{
      kind, wire::RefTransfer{id, ProcessId{1}, ProcessId{2}}};
}

/// Records every delivered message with its arrival time.
class RecordingMailbox : public wire::Mailbox {
 public:
  explicit RecordingMailbox(Simulator& sim) : sim_(sim) {}

  void deliver(SiteId from, SiteId to,
               const wire::WireMessage& msg) override {
    (void)from;
    (void)to;
    messages.push_back(msg);
    arrival_times.push_back(sim_.now());
  }

  std::vector<wire::WireMessage> messages;
  std::vector<SimTime> arrival_times;

 private:
  Simulator& sim_;
};

TEST(Network, DeliversWithinLatencyBounds) {
  Simulator sim;
  Network net(sim, NetworkConfig{.min_latency = 2, .max_latency = 7,
                                 .drop_rate = 0, .duplicate_rate = 0,
                                 .seed = 3});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  net.send(S(1), S(2), ping(MessageKind::kMutator));
  EXPECT_TRUE(sim.run());
  ASSERT_EQ(box.arrival_times.size(), 1u);
  EXPECT_GE(box.arrival_times[0], 2u);
  EXPECT_LE(box.arrival_times[0], 7u);
  EXPECT_EQ(net.stats().of(MessageKind::kMutator).sent, 1u);
  EXPECT_EQ(net.stats().of(MessageKind::kMutator).delivered, 1u);
}

TEST(Network, DeliveredMessageSurvivesTheCodecRoundTrip) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  const wire::WireMessage sent = transfer(MessageKind::kReferencePass, 77);
  net.send(S(1), S(2), sent);
  EXPECT_TRUE(sim.run());
  ASSERT_EQ(box.messages.size(), 1u);
  EXPECT_EQ(box.messages[0], sent) << "what arrives is what was encoded";
}

TEST(Network, DropRateOneLosesEverything) {
  Simulator sim;
  Network net(sim, NetworkConfig{.min_latency = 1, .max_latency = 1,
                                 .drop_rate = 1.0, .duplicate_rate = 0,
                                 .seed = 3,
                                 .flush = wire::FlushPolicy::kImmediate});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  for (int i = 0; i < 100; ++i) {
    net.send(S(1), S(2), ping(MessageKind::kGgdVector));
  }
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(box.messages.empty());
  EXPECT_EQ(net.stats().of(MessageKind::kGgdVector).dropped, 100u);
  EXPECT_EQ(net.stats().packets().dropped, 100u);
}

TEST(Network, DuplicateRateOneDeliversTwice) {
  Simulator sim;
  Network net(sim, NetworkConfig{.min_latency = 1, .max_latency = 1,
                                 .drop_rate = 0, .duplicate_rate = 1.0,
                                 .seed = 3});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  net.send(S(1), S(2), ping(MessageKind::kGgdVector));
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(box.messages.size(), 2u);
  EXPECT_EQ(net.stats().of(MessageKind::kGgdVector).duplicated, 1u);
  EXPECT_EQ(net.stats().packets().duplicated, 1u);
}

TEST(Network, RandomLatencyReordersPackets) {
  Simulator sim;
  Network net(sim, NetworkConfig{.min_latency = 1, .max_latency = 50,
                                 .drop_rate = 0, .duplicate_rate = 0,
                                 .seed = 7,
                                 .flush = wire::FlushPolicy::kImmediate});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  for (std::uint64_t i = 0; i < 20; ++i) {
    net.send(S(1), S(2), transfer(MessageKind::kMutator, i));
  }
  EXPECT_TRUE(sim.run());
  ASSERT_EQ(box.messages.size(), 20u);
  std::vector<std::uint64_t> order;
  for (const auto& m : box.messages) {
    order.push_back(std::get<wire::RefTransfer>(m.body).transfer_id);
  }
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "random latency should reorder at least one pair";
}

TEST(Network, ControlAccountingSeparatesMutatorTraffic) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  net.send(S(1), S(2), ping(MessageKind::kMutator));
  net.send(S(1), S(2), ping(MessageKind::kReferencePass));
  net.send(S(1), S(2), ping(MessageKind::kGgdVector));
  net.send(S(1), S(2), ping(MessageKind::kGgdDestruction));
  EXPECT_EQ(net.stats().control_sent(), 2u);
  EXPECT_EQ(net.stats().total_sent(), 4u);
  // Byte accounting is exact: each ping frames as one kind/tag byte.
  EXPECT_EQ(net.stats().control_bytes_sent(), 2u);
  EXPECT_EQ(net.stats().total_bytes_sent(), 4u);
}

TEST(Network, BatchingCoalescesSameTickMessagesIntoOnePacket) {
  Simulator sim;
  Network net(sim, NetworkConfig{});  // kPerTick is the default
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  for (std::uint64_t i = 0; i < 10; ++i) {
    net.send(S(1), S(2), transfer(MessageKind::kGgdVector, i));
  }
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(box.messages.size(), 10u);
  EXPECT_EQ(net.stats().of(MessageKind::kGgdVector).sent, 10u);
  EXPECT_EQ(net.stats().packets().sent, 1u)
      << "ten same-tick messages to one destination share one packet";
  // Coalesced messages arrive together and in send order.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(box.arrival_times[i], box.arrival_times[0]);
    EXPECT_EQ(std::get<wire::RefTransfer>(box.messages[i].body).transfer_id,
              i);
  }
}

TEST(Network, UnbatchedConfigurationPaysOnePacketPerMessage) {
  Simulator sim;
  Network net(sim, NetworkConfig{.flush = wire::FlushPolicy::kImmediate});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  for (std::uint64_t i = 0; i < 10; ++i) {
    net.send(S(1), S(2), transfer(MessageKind::kGgdVector, i));
  }
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(box.messages.size(), 10u);
  EXPECT_EQ(net.stats().packets().sent, 10u);
}

TEST(Network, BatchingKeepsDistinctDestinationsApart) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  RecordingMailbox box2(sim);
  RecordingMailbox box3(sim);
  net.register_mailbox(S(2), box2);
  net.register_mailbox(S(3), box3);
  net.send(S(1), S(2), ping(MessageKind::kMutator));
  net.send(S(1), S(3), ping(MessageKind::kMutator));
  net.send(S(1), S(2), ping(MessageKind::kMutator));
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(box2.messages.size(), 2u);
  EXPECT_EQ(box3.messages.size(), 1u);
  EXPECT_EQ(net.stats().packets().sent, 2u) << "one packet per destination";
}

TEST(Network, FaultRatesAdjustableMidRun) {
  Simulator sim;
  Network net(sim, NetworkConfig{.drop_rate = 1.0, .seed = 11,
                                 .flush = wire::FlushPolicy::kImmediate});
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  net.send(S(1), S(2), ping(MessageKind::kMutator));
  net.set_drop_rate(0.0);
  net.send(S(1), S(2), ping(MessageKind::kMutator));
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(box.messages.size(), 1u);
}

TEST(Network, WireTraceRecordsAndReplaysPacketSequence) {
  Simulator sim;
  Network net(sim, NetworkConfig{.min_latency = 1, .max_latency = 4,
                                 .drop_rate = 0, .duplicate_rate = 0,
                                 .seed = 9});
  wire::WireTrace trace;
  net.set_trace(&trace);
  RecordingMailbox box(sim);
  net.register_mailbox(S(2), box);
  for (std::uint64_t i = 0; i < 5; ++i) {
    net.send(S(1), S(2), transfer(MessageKind::kReferencePass, i));
    sim.run();
  }
  ASSERT_EQ(trace.size(), 5u);
  const auto original = box.messages;

  // Serialize, reload, and replay the trace against a fresh network: the
  // identical message sequence must come out of the identical bytes.
  const std::vector<std::uint8_t> blob = trace.serialize();
  const auto reloaded = wire::WireTrace::deserialize(blob);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->packets(), trace.packets());

  Simulator sim2;
  Network net2(sim2, NetworkConfig{});
  RecordingMailbox box2(sim2);
  net2.register_mailbox(S(2), box2);
  reloaded->replay(
      [&net2](const std::vector<std::uint8_t>& bytes) {
        net2.deliver_packet(bytes);
      });
  EXPECT_EQ(box2.messages, original);
}

}  // namespace
}  // namespace cgc
