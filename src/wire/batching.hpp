// Per-(src,dst) message coalescing.
//
// A `BatchingChannel` accumulates the encoded messages one site sends to
// one other site and flushes them as a single wire packet. Under the
// `kPerTick` policy every message issued in the same simulation tick
// rides in one packet (GGD cascades emit bursts of vector forwards to the
// same neighbours, so this measurably cuts packet count at zero latency
// cost); `kImmediate` degenerates to one packet per message.
//
// Packet framing: source site, destination site, message count, then the
// framed messages back to back. The packet is self-describing — decoding
// needs no out-of-band state, which is what makes wire traces replayable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace cgc::wire {

enum class FlushPolicy : std::uint8_t {
  kImmediate,  // one packet per message
  kPerTick,    // all same-tick messages to one destination share a packet
};

class BatchingChannel {
 public:
  /// Default state only exists as an empty hash-table slot.
  BatchingChannel() = default;
  BatchingChannel(SiteId from, SiteId to) : from_(from), to_(to) {}

  /// Encodes `msg` into the pending batch; returns its framed size in
  /// bytes (the per-kind byte accounting the stats record).
  std::size_t push(const WireMessage& msg) {
    Encoder enc(pending_);
    const std::size_t before = pending_.size();
    encode_message(enc, msg);
    kinds_.push_back(msg.kind);
    return pending_.size() - before;
  }

  [[nodiscard]] bool empty() const { return kinds_.empty(); }

  struct Packet {
    std::vector<std::uint8_t> bytes;   // full framing, header included
    std::vector<MessageKind> kinds;    // one entry per coalesced message
  };

  /// Assembles the pending batch into one framed packet and resets the
  /// channel.
  [[nodiscard]] Packet flush() {
    Packet p;
    Encoder enc(p.bytes);
    enc.site_id(from_);
    enc.site_id(to_);
    enc.varint(kinds_.size());
    p.bytes.insert(p.bytes.end(), pending_.begin(), pending_.end());
    p.kinds = kinds_;  // exact-size copy: kinds_ keeps its capacity
    pending_.clear();
    kinds_.clear();
    // A channel keeps only a modest buffer between batches: with
    // O(sites^2) channels alive, letting each one pin its high-water
    // batch capacity for ever adds up to a triple-digit-MB reservation
    // on the big bench rungs (flush storms ship whole row sets). The
    // encoded bytes are identical either way.
    if (pending_.capacity() > kRetainCapacity) {
      pending_.shrink_to_fit();
    }
    if (kinds_.capacity() > kRetainCapacity) {
      kinds_.shrink_to_fit();
    }
    return p;
  }

  /// Post-flush capacity, in elements, above which a buffer's backing
  /// block is returned to the allocator instead of kept for the next
  /// batch.
  static constexpr std::size_t kRetainCapacity = 1024;

  [[nodiscard]] SiteId from() const { return from_; }
  [[nodiscard]] SiteId to() const { return to_; }

  /// Flush-event bookkeeping for the network (one pending flush event per
  /// channel per tick).
  bool flush_scheduled = false;

 private:
  SiteId from_;
  SiteId to_;
  std::vector<std::uint8_t> pending_;
  std::vector<MessageKind> kinds_;
};

/// A packet's framing header.
struct PacketHeader {
  SiteId from;
  SiteId to;
  std::uint64_t count = 0;
};

/// Takes one framed packet apart — the packet loop both hosts share.
/// Passes the header to `on_header`, then decodes each message in place
/// into the calling thread's reused MessageDecoder and passes it, with
/// its framed size, to `on_message`; the message lives only for that
/// call. The decoder's retained storage is capped through ScratchUse.
/// CHECK-fails on malformed bytes, and on re-entry: a delivery that read
/// another packet on the same thread would overwrite the message it is
/// still reading.
void read_packet(
    const std::vector<std::uint8_t>& bytes,
    FunctionRef<void(const PacketHeader&)> on_header,
    FunctionRef<void(const WireMessage&, std::size_t)> on_message);

}  // namespace cgc::wire
