#include "wire/messages.hpp"

#include <iterator>
#include <utility>

namespace cgc::wire {
namespace {

void encode_body(Encoder& enc, const RefTransfer& t) {
  enc.varint(t.transfer_id);
  enc.process_id(t.recipient);
  enc.process_id(t.subject);
}

RefTransfer decode_ref_transfer(Decoder& dec) {
  RefTransfer t;
  t.transfer_id = dec.varint();
  t.recipient = dec.process_id();
  t.subject = dec.process_id();
  return t;
}

void encode_body(Encoder& enc, const ObjectRefTransfer& t) {
  enc.varint(t.transfer_id);
  enc.object_id(t.recipient);
  enc.object_id(t.target);
}

ObjectRefTransfer decode_object_ref_transfer(Decoder& dec) {
  ObjectRefTransfer t;
  t.transfer_id = dec.varint();
  t.recipient = dec.object_id();
  t.target = dec.object_id();
  return t;
}

/// Bits of a control body's presence mask: the four flags, and one bit
/// per field that is written only when non-empty (a stamp: non-zero).
/// The mask is a varint, so only the low seven bits fit its first byte.
/// They go to what the commonest messages set: a bare inquiry, an
/// inquiry that echoes its reply frontier or flushes acks, and a current
/// reply whose sender neither holds nor owes grants to its receiver and
/// relays no rows all take a one-byte mask. A full reply's stamp and a
/// reply that ships deferred rows take the high bits.
enum MaskBit : std::uint64_t {
  kInquiry = 1 << 0,
  kReply = 1 << 1,
  kCurrent = 1 << 2,
  kV = 1 << 3,
  kSelfRow = 1 << 4,
  kEcho = 1 << 5,
  kRowAcks = 1 << 6,
  kHoldsReceiver = 1 << 7,
  kBehalf = 1 << 8,
  kRows = 1 << 9,
  kDead = 1 << 10,
  kCondemned = 1 << 11,
  kBehalfRows = 1 << 12,
  kReplyStamp = 1 << 13,
  kKnownBits = (1 << 14) - 1,
};

std::uint64_t presence_mask(const GgdMessage& m) {
  std::uint64_t mask = 0;
  const auto set = [&mask](bool on, MaskBit bit) {
    if (on) {
      mask |= bit;
    }
  };
  set(m.inquiry, kInquiry);
  set(m.reply, kReply);
  set(m.current, kCurrent);
  set(m.holds_receiver, kHoldsReceiver);
  set(!m.v.empty(), kV);
  set(!m.self_row.empty(), kSelfRow);
  set(!m.dead.empty(), kDead);
  set(!m.behalf.empty(), kBehalf);
  set(!m.rows.empty(), kRows);
  set(!m.row_acks.empty(), kRowAcks);
  set(!m.behalf_rows.empty(), kBehalfRows);
  set(!m.condemned.empty(), kCondemned);
  set(m.reply_stamp != 0, kReplyStamp);
  set(m.echo != 0, kEcho);
  return mask;
}

/// Writes a control body: the presence mask, `from`, `to`, then each
/// present field in wire order. `mark(part)` runs once each part is
/// written, so a caller can measure every part's bytes.
template <typename Mark>
void encode_ggd_body(Encoder& enc, const GgdMessage& m, Mark&& mark) {
  const std::uint64_t mask = presence_mask(m);
  enc.varint(mask);
  enc.process_id(m.from);
  enc.process_id(m.to);
  mark(GgdField::kHeader);
  if ((mask & kV) != 0) {
    enc.dependency_vector(m.v);
  }
  mark(GgdField::kV);
  if ((mask & kSelfRow) != 0) {
    enc.dependency_vector(m.self_row);
  }
  mark(GgdField::kSelfRow);
  if ((mask & kBehalf) != 0) {
    enc.dependency_vector(m.behalf);
  }
  mark(GgdField::kBehalf);
  if ((mask & kBehalfRows) != 0) {
    enc.row_map(m.behalf_rows);
  }
  mark(GgdField::kBehalfRows);
  if ((mask & kReplyStamp) != 0) {
    enc.varint(m.reply_stamp);
  }
  if ((mask & kEcho) != 0) {
    enc.varint(m.echo);
  }
  mark(GgdField::kReplyStamps);
  // Relayed rows travel as one columnar batch (delta row-relay): the
  // per-row encoding paid the id/timestamp interleave for every row,
  // while the batch's single RLE timestamp column collapses across rows.
  if ((mask & kRows) != 0) {
    enc.row_batch(m.rows, m.row_revs);
  }
  mark(GgdField::kRows);
  if ((mask & kRowAcks) != 0) {
    enc.u64_map(m.row_acks);
  }
  mark(GgdField::kRowAcks);
  if ((mask & kDead) != 0) {
    enc.process_set(m.dead);
  }
  mark(GgdField::kDead);
  if ((mask & kCondemned) != 0) {
    enc.process_set(m.condemned);
  }
  mark(GgdField::kCondemned);
}

void encode_body(Encoder& enc, const GgdControl& c) {
  encode_ggd_body(enc, c.msg, [](GgdField) {});
}

/// Decodes into `c`, reusing its storage (row vectors through the pools).
/// An absent field is emptied, since warm storage may hold the previous
/// message's. A present field that decodes empty is rejected: the encoder
/// never marks one, so accepting it would give the message a second
/// encoding. So is `current` on anything but a reply that leaves out `v`
/// and `self_row`, which no sender builds.
void decode_ggd_control(Decoder& dec, GgdControl& c, RowPool& behalf_pool,
                        RowPool& rows_pool) {
  GgdMessage& m = c.msg;
  const std::uint64_t mask = dec.varint();
  if ((mask & ~std::uint64_t{kKnownBits}) != 0) {
    dec.reject();
  }
  const auto has = [mask](MaskBit bit) { return (mask & bit) != 0; };
  const auto require = [&dec](bool non_empty) {
    if (dec.ok() && !non_empty) {
      dec.reject();
    }
  };
  if (has(kCurrent) && (!has(kReply) || has(kV) || has(kSelfRow))) {
    dec.reject();
  }
  m.inquiry = has(kInquiry);
  m.reply = has(kReply);
  m.current = has(kCurrent);
  m.holds_receiver = has(kHoldsReceiver);
  m.from = dec.process_id();
  m.to = dec.process_id();
  for (auto [field, bit] :
       {std::pair{&m.v, kV}, std::pair{&m.self_row, kSelfRow},
        std::pair{&m.behalf, kBehalf}}) {
    if (has(bit)) {
      dec.dependency_vector(*field);
      require(!field->empty());
    } else {
      field->clear();
    }
  }
  if (has(kBehalfRows)) {
    dec.row_map(m.behalf_rows, behalf_pool);
    require(!m.behalf_rows.empty());
  } else {
    recycle_rows(m.behalf_rows, behalf_pool);
  }
  for (auto [field, bit] : {std::pair{&m.reply_stamp, kReplyStamp},
                            std::pair{&m.echo, kEcho}}) {
    *field = has(bit) ? dec.varint() : 0;
    require(!has(bit) || *field != 0);
  }
  if (has(kRows)) {
    dec.row_batch(m.rows, m.row_revs, rows_pool);
    require(!m.rows.empty());
  } else {
    recycle_rows(m.rows, rows_pool);
    m.row_revs.clear();
  }
  if (has(kRowAcks)) {
    dec.u64_map(m.row_acks);
    require(!m.row_acks.empty());
  } else {
    m.row_acks.clear();
  }
  for (auto [field, bit] :
       {std::pair{&m.dead, kDead}, std::pair{&m.condemned, kCondemned}}) {
    if (has(bit)) {
      dec.process_set(*field);
      require(!field->empty());
    } else {
      field->clear();
    }
  }
}

/// Elements the storage of `c` can hold, rows included.
std::size_t retained(const GgdControl& c) {
  const GgdMessage& m = c.msg;
  std::size_t n = m.v.capacity() + m.self_row.capacity() +
                  m.behalf.capacity() + m.behalf_rows.capacity() +
                  m.rows.capacity() + m.row_revs.capacity() +
                  m.row_acks.capacity() + m.dead.capacity() +
                  m.condemned.capacity();
  for (const auto& [q, row] : m.behalf_rows) {
    n += row.capacity();
  }
  for (const auto& [q, row] : m.rows) {
    n += row.capacity();
  }
  return n;
}

/// Empties `c`, keeping its storage (row vectors go to the pools).
void clear_ggd_control(GgdControl& c, RowPool& behalf_pool,
                       RowPool& rows_pool) {
  GgdMessage& m = c.msg;
  m.v.clear();
  m.self_row.clear();
  m.behalf.clear();
  recycle_rows(m.behalf_rows, behalf_pool);
  recycle_rows(m.rows, rows_pool);
  m.row_revs.clear();
  m.row_acks.clear();
  m.dead.clear();
  m.condemned.clear();
}

void encode_body(Encoder& enc, const EagerEdgeUpdate& e) {
  enc.process_id(e.from);
  enc.process_id(e.to);
  enc.boolean(e.removal);
}

EagerEdgeUpdate decode_eager_edge_update(Decoder& dec) {
  EagerEdgeUpdate e;
  e.from = dec.process_id();
  e.to = dec.process_id();
  e.removal = dec.boolean();
  return e;
}

void encode_body(Encoder& enc, const SchelvisProbe& p) {
  enc.process_id(p.origin);
  enc.process_seq(p.path);
  enc.process_set(p.visited);
}

SchelvisProbe decode_schelvis_probe(Decoder& dec) {
  SchelvisProbe p;
  p.origin = dec.process_id();
  p.path = dec.process_seq();
  p.visited = dec.process_set();
  return p;
}

void encode_body(Encoder& enc, const WrcWeightReturn& w) {
  enc.process_id(w.target);
  enc.varint(w.weight);
}

WrcWeightReturn decode_wrc_weight_return(Decoder& dec) {
  WrcWeightReturn w;
  w.target = dec.process_id();
  w.weight = dec.varint();
  return w;
}

void encode_body(Encoder&, const ControlPing&) {}

void encode_snapshot(Encoder& enc, const GgdProcessSnapshot& s) {
  enc.process_id(s.id);
  enc.boolean(s.is_root);
  enc.row_map(s.log_rows);
  enc.process_set(s.acquaintances);
  enc.row_map(s.history);
  enc.row_map(s.known_rows);
  enc.row_map(s.known_behalf);
  enc.process_set(s.dead);
  enc.process_set(s.resurrected);
  enc.u64_map(s.resurrect_fact_index);
  enc.u64_map(s.refuted_fact_ceiling);
  enc.u64_map(s.in_edge_confirmed);
  enc.dependency_vector(s.last_v);
  enc.boolean(s.forward_pending);
  enc.process_set(s.inflight_inquiries);
  enc.u64_map(s.blocked_inquired_version);
  enc.u64_map(s.inquired_version);
  enc.u64_map(s.confirm_time);
  enc.boolean(s.pending_verify);
  enc.varint(s.pending_verify_since);
  enc.varint(s.rev_counter);
}

GgdProcessSnapshot decode_snapshot(Decoder& dec) {
  GgdProcessSnapshot s;
  s.id = dec.process_id();
  s.is_root = dec.boolean();
  s.log_rows = dec.row_map();
  s.acquaintances = dec.process_set();
  s.history = dec.row_map();
  s.known_rows = dec.row_map();
  s.known_behalf = dec.row_map();
  s.dead = dec.process_set();
  s.resurrected = dec.process_set();
  s.resurrect_fact_index = dec.u64_map();
  s.refuted_fact_ceiling = dec.u64_map();
  s.in_edge_confirmed = dec.u64_map();
  s.last_v = dec.dependency_vector();
  s.forward_pending = dec.boolean();
  s.inflight_inquiries = dec.process_set();
  s.blocked_inquired_version = dec.u64_map();
  s.inquired_version = dec.u64_map();
  s.confirm_time = dec.u64_map();
  s.pending_verify = dec.boolean();
  s.pending_verify_since = dec.varint();
  s.rev_counter = dec.varint();
  return s;
}

void encode_body(Encoder& enc, const MigrateState& m) {
  enc.varint(m.migration_id);
  enc.process_id(m.proc);
  enc.site_id(m.src);
  enc.site_id(m.dst);
  encode_snapshot(enc, m.snap);
}

MigrateState decode_migrate_state(Decoder& dec) {
  MigrateState m;
  m.migration_id = dec.varint();
  m.proc = dec.process_id();
  m.src = dec.site_id();
  m.dst = dec.site_id();
  m.snap = decode_snapshot(dec);
  return m;
}

void encode_body(Encoder& enc, const MigrateAck& a) {
  enc.varint(a.migration_id);
  enc.process_id(a.proc);
  enc.site_id(a.dst);
}

MigrateAck decode_migrate_ack(Decoder& dec) {
  MigrateAck a;
  a.migration_id = dec.varint();
  a.proc = dec.process_id();
  a.dst = dec.site_id();
  return a;
}

}  // namespace

// One byte frames a message: kind in the high nibble, body tag in the low.
static_assert(static_cast<unsigned>(MessageKind::kCount) <= 16);
static_assert(std::variant_size_v<Body> <= 16);

void encode_message(Encoder& enc, const WireMessage& msg) {
  enc.u8(static_cast<std::uint8_t>(static_cast<unsigned>(msg.kind) << 4 |
                                   msg.body.index()));
  std::visit([&enc](const auto& body) { encode_body(enc, body); }, msg.body);
}

std::optional<WireMessage> decode_message(Decoder& dec) {
  MessageDecoder reader;
  if (!reader.decode(dec)) {
    return std::nullopt;
  }
  return std::move(reader).message();
}

bool MessageDecoder::decode(Decoder& dec) {
  const std::uint8_t framing = dec.u8();
  const unsigned kind = framing >> 4;
  const unsigned tag = framing & 0xf;
  if (!dec.ok()) {
    return false;
  }
  if (kind >= static_cast<unsigned>(MessageKind::kCount) ||
      tag >= std::variant_size_v<Body>) {
    dec.reject();
    return false;
  }
  msg_.kind = static_cast<MessageKind>(kind);
  switch (tag) {
    case 0:
      set_body(decode_ref_transfer(dec));
      break;
    case 1:
      set_body(decode_object_ref_transfer(dec));
      break;
    case 2:
      decode_ggd_control(dec, ggd_body(), behalf_pool_, rows_pool_);
      break;
    case 3:
      set_body(decode_eager_edge_update(dec));
      break;
    case 4:
      set_body(decode_schelvis_probe(dec));
      break;
    case 5:
      set_body(decode_wrc_weight_return(dec));
      break;
    case 6:
      set_body(ControlPing{});
      break;
    case 7:
      set_body(decode_migrate_state(dec));
      break;
    case 8:
      set_body(decode_migrate_ack(dec));
      break;
    default:
      return false;
  }
  return dec.ok();
}

GgdControl& MessageDecoder::ggd_body() {
  if (auto* c = std::get_if<GgdControl>(&msg_.body)) {
    return *c;
  }
  return msg_.body.emplace<GgdControl>(std::move(parked_));
}

void MessageDecoder::clear() {
  auto* c = std::get_if<GgdControl>(&msg_.body);
  clear_ggd_control(c != nullptr ? *c : parked_, behalf_pool_, rows_pool_);
}

std::size_t MessageDecoder::capacity() const {
  std::size_t n = behalf_pool_.capacity() + rows_pool_.capacity();
  for (const RowPool* pool : {&behalf_pool_, &rows_pool_}) {
    for (const DependencyVector& row : *pool) {
      n += row.capacity();
    }
  }
  const auto* c = std::get_if<GgdControl>(&msg_.body);
  return n + retained(c != nullptr ? *c : parked_);
}

const char* ggd_field_name(GgdField f) {
  static constexpr const char* kNames[] = {
      "header", "v",        "self_row", "behalf", "behalf_rows",
      "reply_stamps", "rows", "row_acks", "dead", "condemned"};
  static_assert(std::size(kNames) == kGgdFieldCount);
  return kNames[static_cast<std::size_t>(f)];
}

GgdFieldBytes ggd_field_bytes(const GgdMessage& m) {
  std::vector<std::uint8_t> buf;
  Encoder enc(buf);
  GgdFieldBytes parts{};
  std::size_t before = 0;
  enc.u8(0);  // the kind/tag byte, counted in the header
  encode_ggd_body(enc, m, [&](GgdField f) {
    parts[static_cast<std::size_t>(f)] = enc.size() - before;
    before = enc.size();
  });
  return parts;
}

std::size_t encoded_size(const WireMessage& msg) {
  std::vector<std::uint8_t> buf;
  Encoder enc(buf);
  encode_message(enc, msg);
  return buf.size();
}

}  // namespace cgc::wire
