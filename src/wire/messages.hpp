// Typed wire messages: one struct per payload shape the system puts on
// the network, plus the framing that maps them to and from bytes.
//
// A `WireMessage` pairs a `MessageKind` (the accounting taxonomy of
// net/message.hpp) with a typed body. The two are deliberately separate
// axes: several kinds share a body shape (every baseline's modelled
// mutator traffic is a `RefTransfer`), and one body shape serves several
// kinds (`GgdControl` carries vector, destruction and inquiry traffic,
// distinguished by its contents exactly as §3 of the paper does).
//
// Framing per message: one byte holding the kind in its high nibble and
// the body tag in its low nibble, then the body fields. The body tag is
// the variant index, pinned by the order of `Body`'s alternatives —
// append new shapes at the end, never reorder.
//
// A GGD control body starts with a varint presence mask: the message's
// four flags, and one bit per field that is sent only when non-empty (a
// stamp: non-zero). Then come `from`, `to` and the present fields in a
// fixed order; an absent field costs no byte (see messages.cpp for the
// bits and the order).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "ggd/process.hpp"
#include "net/message.hpp"
#include "wire/codec.hpp"

namespace cgc::wire {

/// Process-granularity reference transfer (the GGD engine's mutator
/// traffic): on delivery `recipient` gains a reference to `subject`.
/// `transfer_id` makes application idempotent under duplication.
struct RefTransfer {
  std::uint64_t transfer_id = 0;
  ProcessId recipient;
  ProcessId subject;

  [[nodiscard]] bool operator==(const RefTransfer&) const = default;
};

/// Object-granularity reference transfer (the distributed runtime's
/// mutator traffic): `recipient` gains a reference to `target`,
/// materialising a proxy if the target is remote. `transfer_id` makes
/// application idempotent under duplication (object slots are a multiset,
/// so a replayed packet would otherwise leak a phantom reference).
struct ObjectRefTransfer {
  std::uint64_t transfer_id = 0;
  ObjectId recipient;
  ObjectId target;

  [[nodiscard]] bool operator==(const ObjectRefTransfer&) const = default;
};

/// GGD control traffic: the full dependency-vector message of §3
/// (vector propagation, edge destruction, inquiry and reply).
struct GgdControl {
  GgdMessage msg;

  [[nodiscard]] bool operator==(const GgdControl&) const = default;
};

/// Schelvis baseline: eager log-keeping edge update (§2.3) — the extra
/// control message lazy log-keeping exists to eliminate.
struct EagerEdgeUpdate {
  ProcessId from;
  ProcessId to;
  bool removal = false;

  [[nodiscard]] bool operator==(const EagerEdgeUpdate&) const = default;
};

/// Schelvis baseline: the travelling depth-first probe. The probe state
/// itself is the wire payload — its size on the wire grows with the path,
/// which is the O(k^2) traffic behaviour §4 compares against.
struct SchelvisProbe {
  ProcessId origin;
  std::vector<ProcessId> path;
  FlatSet<ProcessId> visited;

  [[nodiscard]] bool operator==(const SchelvisProbe&) const = default;
};

/// WRC baseline: weight returned to the target object's home site.
struct WrcWeightReturn {
  ProcessId target;
  std::uint64_t weight = 0;

  [[nodiscard]] bool operator==(const WrcWeightReturn&) const = default;
};

/// Payload-free control message (tracing-baseline marks, acks and
/// consensus round-trips: only their count matters).
struct ControlPing {
  [[nodiscard]] bool operator==(const ControlPing&) const = default;
};

/// Cross-site hand-off, message 1 of 2: the mover's complete fact state
/// (GgdProcessSnapshot) travelling from its old site to its new one. The
/// delivered packet is authoritative — the destination resumes from these
/// bytes, which is what makes the transfer atomic at the protocol level.
/// `migration_id` makes application idempotent under duplication and
/// sweep re-emission.
struct MigrateState {
  std::uint64_t migration_id = 0;
  ProcessId proc;
  SiteId src;
  SiteId dst;
  GgdProcessSnapshot snap;

  [[nodiscard]] bool operator==(const MigrateState&) const = default;
};

/// Cross-site hand-off, message 2 of 2: the destination's confirmation
/// that the snapshot was installed. Receipt releases the source's
/// re-emission obligation and arms the forwarding stub's redirect TTL
/// countdown (before the ack, the stub forwards unconditionally — the
/// snapshot itself may still be in flight).
struct MigrateAck {
  std::uint64_t migration_id = 0;
  ProcessId proc;
  SiteId dst;

  [[nodiscard]] bool operator==(const MigrateAck&) const = default;
};

using Body = std::variant<RefTransfer, ObjectRefTransfer, GgdControl,
                          EagerEdgeUpdate, SchelvisProbe, WrcWeightReturn,
                          ControlPing, MigrateState, MigrateAck>;

struct WireMessage {
  MessageKind kind = MessageKind::kMutator;
  Body body;

  [[nodiscard]] bool operator==(const WireMessage&) const = default;
};

/// Appends the framed encoding of `msg` to the encoder's buffer.
void encode_message(Encoder& enc, const WireMessage& msg);

/// Decodes one framed message; nullopt on truncation or malformed input
/// (the decoder's fail flag is set either way).
[[nodiscard]] std::optional<WireMessage> decode_message(Decoder& dec);

/// Decodes framed messages one after another into the same WireMessage,
/// reusing its storage: a GGD control body keeps the capacity of its
/// vectors, maps and sets, nested relayed rows included, so a warm
/// decoder allocates nothing to decode a control message and frees
/// nothing when the next one replaces it. Other bodies are small and are
/// assigned fresh; the control body's storage waits aside meanwhile.
///
/// clear() and capacity() make it a ScratchUse container: capacity()
/// counts the elements all of that storage can hold.
class MessageDecoder {
 public:
  /// Decodes one framed message into message(). False on truncation or
  /// malformed input, like decode_message; message() is then unspecified
  /// until the next successful decode.
  [[nodiscard]] bool decode(Decoder& dec);

  [[nodiscard]] const WireMessage& message() const& { return msg_; }
  [[nodiscard]] WireMessage message() && { return std::move(msg_); }

  /// Empties the message, keeping every capacity.
  void clear();
  [[nodiscard]] std::size_t capacity() const;

 private:
  /// The GgdControl alternative of msg_, made active with `parked_`'s
  /// storage if another body is active.
  GgdControl& ggd_body();

  /// Assigns any other body, parking the control body's storage first.
  template <typename B>
  void set_body(B body) {
    if (auto* c = std::get_if<GgdControl>(&msg_.body)) {
      parked_ = std::move(*c);
    }
    msg_.body = std::move(body);
  }

  WireMessage msg_;
  GgdControl parked_;
  RowPool behalf_pool_;  // for msg.behalf_rows
  RowPool rows_pool_;    // for msg.rows
};

/// Exact framed size of `msg` in bytes.
[[nodiscard]] std::size_t encoded_size(const WireMessage& msg);

/// The parts of a framed GGD control message, in wire order. `kHeader` is
/// the kind/tag byte, the presence mask, `from` and `to`;
/// `kReplyStamps` is `reply_stamp` and `echo`; `kRows` includes
/// `row_revs`.
enum class GgdField : std::uint8_t {
  kHeader,
  kV,
  kSelfRow,
  kBehalf,
  kBehalfRows,
  kReplyStamps,
  kRows,
  kRowAcks,
  kDead,
  kCondemned,
};
inline constexpr std::size_t kGgdFieldCount =
    static_cast<std::size_t>(GgdField::kCondemned) + 1;
using GgdFieldBytes = std::array<std::size_t, kGgdFieldCount>;

[[nodiscard]] const char* ggd_field_name(GgdField f);

/// Bytes each part of `m` takes when framed as a message, indexed by
/// GgdField: the per-field byte ledger. An absent field takes 0, and the
/// parts sum to encoded_size() of the framed message.
[[nodiscard]] GgdFieldBytes ggd_field_bytes(const GgdMessage& m);

}  // namespace cgc::wire
