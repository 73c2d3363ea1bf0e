// Simulated asynchronous message network between sites.
//
// The paper's system model is a loosely-coupled distributed system: unicast
// messages, arbitrary (finite) delay, possible loss, duplication and
// reordering, no global clock. This class is the single chokepoint through
// which every inter-site byte travels, so it is also where faults are
// injected and traffic is accounted.
//
// All traffic is real bytes: a send encodes a typed `wire::WireMessage`
// through the wire codec into a per-(src,dst) `BatchingChannel`; the
// channel's flush puts one self-describing packet on the wire; loss,
// duplication and latency act on packets; delivery decodes the packet and
// dispatches each message to the destination site's registered mailbox.
// Per-kind message counts and encoded byte counts are exact, and an
// attached `WireTrace` captures the packet sequence for replay.
#pragma once

#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "common/dense_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "metrics/message_stats.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"
#include "wire/batching.hpp"
#include "wire/mailbox.hpp"
#include "wire/messages.hpp"
#include "wire/trace.hpp"

namespace cgc {

struct NetworkConfig {
  SimTime min_latency = 1;
  SimTime max_latency = 5;
  double drop_rate = 0.0;       // probability a packet is silently lost
  double duplicate_rate = 0.0;  // probability a packet is delivered twice
  std::uint64_t seed = 42;
  /// Same-tick messages to one destination coalesce into one packet by
  /// default; kImmediate gives every message its own packet (the
  /// unbatched baseline the batching benches compare against).
  wire::FlushPolicy flush = wire::FlushPolicy::kPerTick;
};

class Network {
 public:
  Network(Simulator& sim, NetworkConfig config)
      : sim_(sim), config_(config), rng_(config.seed) {}

  /// Registers the endpoint that receives traffic addressed to `site`.
  /// Idempotent for the same mailbox; a site never has two endpoints.
  void register_mailbox(SiteId site, wire::Mailbox& mailbox) {
    auto [slot, inserted] = mailboxes_.emplace(site, &mailbox);
    CGC_CHECK_MSG(inserted || *slot == &mailbox,
                  "site already has a different mailbox");
  }

  [[nodiscard]] bool has_mailbox(SiteId site) const {
    return mailboxes_.contains(site);
  }

  /// Sends a typed message from `from` to `to`: encodes it into the
  /// channel's pending batch and accounts its exact framed byte size.
  void send(SiteId from, SiteId to, const wire::WireMessage& msg) {
    wire::BatchingChannel& ch = channel(from, to);
    const std::size_t bytes = ch.push(msg);
    stats_.on_send(msg.kind, bytes);
    if (config_.flush == wire::FlushPolicy::kImmediate) {
      transmit(ch);
    } else if (!ch.flush_scheduled) {
      // End-of-tick flush: runs after every event already queued for the
      // current instant, so the whole tick's burst shares one packet.
      ch.flush_scheduled = true;
      sim_.schedule_in(0, [this, from, to]() {
        wire::BatchingChannel& c = channel(from, to);
        c.flush_scheduled = false;
        if (!c.empty()) {
          transmit(c);
        }
      });
    }
  }

  /// Decodes a framed packet and synchronously dispatches its messages to
  /// the destination mailbox. The normal delivery path lands here after
  /// the latency delay; trace replay calls it directly.
  void deliver_packet(const std::vector<std::uint8_t>& bytes) {
    SiteId from;
    SiteId to;
    wire::Mailbox* box = nullptr;
    wire::read_packet(
        bytes,
        [&](const wire::PacketHeader& h) {
          from = h.from;
          to = h.to;
          wire::Mailbox* const* found = mailboxes_.find(to);
          CGC_CHECK_MSG(found != nullptr,
                        "no mailbox registered for destination site");
          box = *found;
          stats_.on_packet_deliver(bytes.size());
        },
        [&](const wire::WireMessage& msg, std::size_t framed) {
          stats_.on_deliver(msg.kind, framed);
          box->deliver(from, to, msg);
        });
  }

  [[nodiscard]] const MessageStats& stats() const { return stats_; }
  MessageStats& stats() { return stats_; }

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Adjusts fault rates mid-run (robustness sweeps flip faults on for a
  /// window, then heal the network).
  void set_drop_rate(double p) { config_.drop_rate = p; }
  void set_duplicate_rate(double p) { config_.duplicate_rate = p; }

  /// Attaches (or detaches, with nullptr) a packet-trace recorder.
  void set_trace(wire::WireTrace* trace) { trace_ = trace; }

  [[nodiscard]] Simulator& simulator() { return sim_; }

 private:
  wire::BatchingChannel& channel(SiteId from, SiteId to) {
    if (wire::BatchingChannel* ch = channels_.find({from, to})) {
      return *ch;  // hot path: no throwaway channel construction
    }
    return *channels_.emplace({from, to}, wire::BatchingChannel(from, to))
                .first;
  }

  /// Puts the channel's pending batch on the wire as one packet: fault
  /// decisions and latency are per packet, so coalesced messages share
  /// their transport fate exactly like bytes in a real datagram.
  void transmit(wire::BatchingChannel& ch) {
    wire::BatchingChannel::Packet packet = ch.flush();
    stats_.on_packet_send(packet.bytes.size());
    wire::PacketRecord record;
    if (trace_ != nullptr) {
      record.sent_at = sim_.now();
      record.from = ch.from();
      record.to = ch.to();
      record.bytes = packet.bytes;
    }
    if (rng_.chance(config_.drop_rate)) {
      stats_.on_packet_drop();
      for (MessageKind k : packet.kinds) {
        stats_.on_drop(k);
      }
      if (trace_ != nullptr) {
        record.dropped = true;
        trace_->record(std::move(record));
      }
      return;
    }
    const int copies = rng_.chance(config_.duplicate_rate) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      if (c > 0) {
        stats_.on_packet_duplicate();
        for (MessageKind k : packet.kinds) {
          stats_.on_duplicate(k);
        }
      }
      const SimTime latency =
          config_.min_latency +
          rng_.below(config_.max_latency - config_.min_latency + 1);
      if (trace_ != nullptr) {
        record.delivered_at.push_back(sim_.now() + latency);
      }
      // The last copy takes the packet's bytes; only a duplicate copies.
      auto bytes =
          c + 1 == copies ? std::move(packet.bytes) : packet.bytes;
      sim_.schedule_in(latency, [this, bytes = std::move(bytes)]() {
        deliver_packet(bytes);
      });
    }
    if (trace_ != nullptr) {
      trace_->record(std::move(record));
    }
  }

  Simulator& sim_;
  NetworkConfig config_;
  Rng rng_;
  MessageStats stats_;
  DenseMap<SiteId, wire::Mailbox*> mailboxes_;
  DenseMap<std::pair<SiteId, SiteId>, wire::BatchingChannel> channels_;
  wire::WireTrace* trace_ = nullptr;
};

}  // namespace cgc
