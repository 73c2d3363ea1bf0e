#include "wire/messages.hpp"

namespace cgc::wire {
namespace {

constexpr std::uint8_t kInquiryBit = 1;
constexpr std::uint8_t kReplyBit = 2;
constexpr std::uint8_t kOutEdgesBit = 4;
/// Set only when the message carries a condemned set, which is then
/// encoded after `out_edges`; every other message keeps its bytes.
constexpr std::uint8_t kCondemnedBit = 8;

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

void encode_body(Encoder& enc, const GgdControl& c) {
  const GgdMessage& m = c.msg;
  enc.process_id(m.from);
  enc.process_id(m.to);
  enc.dependency_vector(m.v);
  enc.dependency_vector(m.self_row);
  enc.dependency_vector(m.behalf);
  enc.row_map(m.behalf_rows);
  // Relayed rows travel as one columnar batch (delta row-relay): the
  // per-row encoding paid the id/timestamp interleave for every row,
  // while the batch's single RLE timestamp column collapses across rows.
  enc.row_batch(m.rows, m.row_revs);
  enc.u64_map(m.row_acks);
  enc.varint(m.sync_epoch);
  enc.varint(m.ack_epoch);
  enc.process_set(m.dead);
  std::uint8_t flags = 0;
  flags |= m.inquiry ? kInquiryBit : 0;
  flags |= m.reply ? kReplyBit : 0;
  flags |= m.has_out_edges ? kOutEdgesBit : 0;
  flags |= m.condemned.empty() ? 0 : kCondemnedBit;
  enc.u8(flags);
  enc.process_set(m.out_edges);
  if (!m.condemned.empty()) {
    enc.process_set(m.condemned);
  }
}

/// Decodes into `c`, reusing its storage (row vectors through the pools).
void decode_ggd_control(Decoder& dec, GgdControl& c, RowPool& behalf_pool,
                        RowPool& rows_pool) {
  GgdMessage& m = c.msg;
  m.from = dec.process_id();
  m.to = dec.process_id();
  dec.dependency_vector(m.v);
  dec.dependency_vector(m.self_row);
  dec.dependency_vector(m.behalf);
  dec.row_map(m.behalf_rows, behalf_pool);
  dec.row_batch(m.rows, m.row_revs, rows_pool);
  dec.u64_map(m.row_acks);
  m.sync_epoch = dec.varint();
  m.ack_epoch = dec.varint();
  dec.process_set(m.dead);
  const std::uint8_t flags = dec.u8();
  m.inquiry = (flags & kInquiryBit) != 0;
  m.reply = (flags & kReplyBit) != 0;
  m.has_out_edges = (flags & kOutEdgesBit) != 0;
  dec.process_set(m.out_edges);
  if ((flags & kCondemnedBit) != 0) {
    dec.process_set(m.condemned);
  } else {
    m.condemned.clear();  // warm storage may hold the previous message's
  }
}

/// Elements the storage of `c` can hold, rows included.
std::size_t retained(const GgdControl& c) {
  const GgdMessage& m = c.msg;
  std::size_t n = m.v.capacity() + m.self_row.capacity() +
                  m.behalf.capacity() + m.behalf_rows.capacity() +
                  m.rows.capacity() + m.row_revs.capacity() +
                  m.row_acks.capacity() + m.dead.capacity() +
                  m.out_edges.capacity() + m.condemned.capacity();
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
  m.out_edges.clear();
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
  enc.process_set(s.inquired);
  enc.process_set(s.inflight_inquiries);
  enc.u64_map(s.blocked_inquired_version);
  enc.u64_map(s.inquired_version);
  enc.u64_map(s.confirm_time);
  enc.boolean(s.pending_verify);
  enc.varint(s.pending_verify_since);
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
  s.inquired = dec.process_set();
  s.inflight_inquiries = dec.process_set();
  s.blocked_inquired_version = dec.u64_map();
  s.inquired_version = dec.u64_map();
  s.confirm_time = dec.u64_map();
  s.pending_verify = dec.boolean();
  s.pending_verify_since = dec.varint();
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

void encode_message(Encoder& enc, const WireMessage& msg) {
  enc.u8(static_cast<std::uint8_t>(msg.kind));
  enc.u8(static_cast<std::uint8_t>(msg.body.index()));
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
  const std::uint8_t kind = dec.u8();
  const std::uint8_t tag = dec.u8();
  if (!dec.ok() || kind >= static_cast<std::uint8_t>(MessageKind::kCount) ||
      tag >= std::variant_size_v<Body>) {
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

std::size_t encoded_size(const WireMessage& msg) {
  std::vector<std::uint8_t> buf;
  Encoder enc(buf);
  encode_message(enc, msg);
  return buf.size();
}

}  // namespace cgc::wire
