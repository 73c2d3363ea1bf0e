// Wire-codec property tests: round-trip identity over seeded-random
// values for every primitive and every message body, and rejection of
// every truncated buffer.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "wire/messages.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

DependencyVector random_dv(Rng& rng, std::size_t max_entries = 12) {
  DependencyVector dv;
  const std::size_t n = rng.below(max_entries + 1);
  std::uint64_t pid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pid += 1 + rng.below(1000);  // strictly increasing, occasionally sparse
    const std::uint64_t index = 1 + rng.below(1 << 20);
    dv.set(P(pid), rng.chance(0.3) ? Timestamp::destruction(index)
                                   : Timestamp::creation(index));
  }
  return dv;
}

FlatSet<ProcessId> random_set(Rng& rng, std::size_t max_entries = 8) {
  FlatSet<ProcessId> s;
  const std::size_t n = rng.below(max_entries + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s.insert(P(rng.below(1 << 16)));
  }
  return s;
}

FlatMap<ProcessId, std::uint64_t> random_u64_map(Rng& rng, std::size_t max_n);

GgdMessage random_ggd_message(Rng& rng) {
  GgdMessage m;
  m.from = P(1 + rng.below(100));
  m.to = P(1 + rng.below(100));
  m.v = random_dv(rng);
  m.self_row = random_dv(rng);
  m.behalf = random_dv(rng);
  const std::size_t rows = rng.below(4);
  std::uint64_t pid = 0;
  std::uint64_t rev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    pid += 1 + rng.below(50);
    m.rows[P(pid)] = random_dv(rng, 6);
    // Revision stamps are per-message aligned with `rows` on the wire.
    m.row_revs[P(pid)] = ++rev + rng.below(100);
  }
  m.row_acks = random_u64_map(rng, 6);
  m.dead = random_set(rng);
  m.inquiry = rng.chance(0.2);
  m.reply = rng.chance(0.2);
  m.holds_receiver = m.reply && rng.chance(0.5);
  if (m.reply && rng.chance(0.3)) {
    m.current = true;
    m.v.clear();
    m.self_row.clear();
  }
  if (rng.chance(0.3)) {
    m.condemned = random_set(rng);
  }
  return m;
}

FlatMap<ProcessId, DependencyVector> random_rows(Rng& rng,
                                                 std::size_t max_rows = 5) {
  FlatMap<ProcessId, DependencyVector> rows;
  const std::size_t n = rng.below(max_rows + 1);
  std::uint64_t pid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pid += 1 + rng.below(50);
    rows[P(pid)] = random_dv(rng, 6);
  }
  return rows;
}

FlatMap<ProcessId, std::uint64_t> random_u64_map(Rng& rng,
                                                 std::size_t max_n = 6) {
  FlatMap<ProcessId, std::uint64_t> m;
  const std::size_t n = rng.below(max_n + 1);
  std::uint64_t pid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pid += 1 + rng.below(50);
    m[P(pid)] = rng.next() >> rng.below(40);
  }
  return m;
}

GgdProcessSnapshot random_snapshot(Rng& rng) {
  GgdProcessSnapshot s;
  s.id = P(1 + rng.below(1000));
  s.is_root = rng.chance(0.2);
  s.log_rows = random_rows(rng);
  s.acquaintances = random_set(rng);
  s.history = random_rows(rng);
  s.known_rows = random_rows(rng);
  s.known_behalf = random_rows(rng);
  s.dead = random_set(rng);
  s.resurrected = random_set(rng);
  s.resurrect_fact_index = random_u64_map(rng);
  s.refuted_fact_ceiling = random_u64_map(rng);
  s.in_edge_confirmed = random_u64_map(rng);
  s.last_v = random_dv(rng);
  s.forward_pending = rng.chance(0.5);
  s.inquired = random_set(rng);
  s.inflight_inquiries = random_set(rng);
  s.blocked_inquired_version = random_u64_map(rng);
  s.inquired_version = random_u64_map(rng);
  s.confirm_time = random_u64_map(rng);
  s.pending_verify = rng.chance(0.3);
  s.pending_verify_since = rng.below(1 << 20);
  return s;
}

/// One random body of each alternative, cycling through all shapes.
wire::WireMessage random_message(Rng& rng, std::size_t shape) {
  wire::WireMessage msg;
  switch (shape % 9) {
    case 0:
      msg.kind = MessageKind::kReferencePass;
      msg.body = wire::RefTransfer{rng.next(), P(rng.below(1 << 20)),
                                   P(rng.below(1 << 20))};
      break;
    case 1:
      msg.kind = MessageKind::kReferencePass;
      msg.body = wire::ObjectRefTransfer{rng.next(),
                                         ObjectId{rng.below(1 << 20)},
                                         ObjectId{rng.below(1 << 20)}};
      break;
    case 2: {
      const GgdMessage m = random_ggd_message(rng);
      msg.kind = m.inquiry || m.reply ? MessageKind::kGgdInquiry
                 : m.is_destruction() ? MessageKind::kGgdDestruction
                                      : MessageKind::kGgdVector;
      msg.body = wire::GgdControl{m};
      break;
    }
    case 3:
      msg.kind = MessageKind::kEagerControl;
      msg.body = wire::EagerEdgeUpdate{P(rng.below(100)), P(rng.below(100)),
                                       rng.chance(0.5)};
      break;
    case 4: {
      wire::SchelvisProbe probe;
      probe.origin = P(rng.below(100));
      const std::size_t hops = rng.below(10);
      for (std::size_t i = 0; i < hops; ++i) {
        probe.path.push_back(P(rng.below(100)));  // unsorted on purpose
      }
      probe.visited = random_set(rng);
      msg.kind = MessageKind::kSchelvisPacket;
      msg.body = probe;
      break;
    }
    case 5:
      msg.kind = MessageKind::kWrcControl;
      msg.body = wire::WrcWeightReturn{P(rng.below(100)), rng.next()};
      break;
    case 6:
      msg.kind = MessageKind::kTracingControl;
      msg.body = wire::ControlPing{};
      break;
    case 7:
      msg.kind = MessageKind::kMigration;
      msg.body = wire::MigrateState{rng.next(), P(1 + rng.below(1000)),
                                    SiteId{rng.below(256)},
                                    SiteId{rng.below(256)},
                                    random_snapshot(rng)};
      break;
    default:
      msg.kind = MessageKind::kMigration;
      msg.body = wire::MigrateAck{rng.next(), P(1 + rng.below(1000)),
                                  SiteId{rng.below(256)}};
      break;
  }
  return msg;
}

TEST(WireCodec, VarintRoundTripsBoundaryValues) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    enc.varint(v);
    wire::Decoder dec(buf);
    EXPECT_EQ(dec.varint(), v);
    EXPECT_TRUE(dec.done());
  }
}

TEST(WireCodec, TimestampPacksDestructionMarker) {
  for (const Timestamp ts :
       {Timestamp{}, Timestamp::creation(1), Timestamp::creation(12345),
        Timestamp::destruction(1), Timestamp::destruction(12345)}) {
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    enc.timestamp(ts);
    wire::Decoder dec(buf);
    EXPECT_EQ(dec.timestamp(), ts);
    EXPECT_TRUE(dec.done());
  }
}

TEST(WireCodec, DependencyVectorRoundTripsRandomVectors) {
  Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    const DependencyVector dv = random_dv(rng, 20);
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    enc.dependency_vector(dv);
    wire::Decoder dec(buf);
    EXPECT_EQ(dec.dependency_vector(), dv);
    EXPECT_TRUE(dec.done());
  }
}

TEST(WireCodec, DeltaEncodingKeepsDenseVectorsCompact) {
  // Adjacent process ids cost one byte each after the first, regardless
  // of their absolute magnitude — the property that keeps circulating
  // vectors small in long-running systems with large id spaces.
  DependencyVector dv;
  for (std::uint64_t i = 0; i < 64; ++i) {
    dv.set(P((1ULL << 40) + i), Timestamp::creation(1));
  }
  std::vector<std::uint8_t> buf;
  wire::Encoder enc(buf);
  enc.dependency_vector(dv);
  // count (1) + first id (6 varint bytes) + 63 * (1 delta + 1 ts) + 1 ts.
  EXPECT_LE(buf.size(), 1u + 6u + 63u * 2u + 1u);
}

TEST(WireCodec, MessageRoundTripsAllShapes) {
  Rng rng(97);
  for (std::size_t i = 0; i < 700; ++i) {
    const wire::WireMessage msg = random_message(rng, i);
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    wire::encode_message(enc, msg);
    EXPECT_EQ(buf.size(), wire::encoded_size(msg));
    wire::Decoder dec(buf);
    const auto decoded = wire::decode_message(dec);
    ASSERT_TRUE(decoded.has_value()) << "shape " << i % 7;
    EXPECT_EQ(*decoded, msg);
    EXPECT_TRUE(dec.done());
  }
}

DependencyVector nonempty_dv(Rng& rng) {
  DependencyVector dv;
  while (dv.empty()) {
    dv = random_dv(rng, 6);
  }
  return dv;
}

FlatSet<ProcessId> nonempty_set(Rng& rng) {
  FlatSet<ProcessId> s;
  while (s.empty()) {
    s = random_set(rng, 6);
  }
  return s;
}

/// One flag or optional field of a control message: how to set and clear
/// it, and for a field, its ledger part and its encoding on its own.
struct Presence {
  const char* name;
  void (*set)(GgdMessage&, Rng&);
  void (*clear)(GgdMessage&);
  std::optional<wire::GgdField> field;
  void (*alone)(wire::Encoder&, const GgdMessage&);
};

/// Every flag and optional field: each presence-mask combination is a
/// subset of these.
const std::vector<Presence>& presences() {
  using F = wire::GgdField;
  using M = GgdMessage;
  using E = wire::Encoder;
  static const std::vector<Presence> all = {
      {"inquiry", [](M& m, Rng&) { m.inquiry = true; },
       [](M& m) { m.inquiry = false; }, {}, nullptr},
      {"reply", [](M& m, Rng&) { m.reply = true; },
       [](M& m) { m.reply = false; }, {}, nullptr},
      {"current", [](M& m, Rng&) { m.current = true; },
       [](M& m) { m.current = false; }, {}, nullptr},
      {"holds_receiver", [](M& m, Rng&) { m.holds_receiver = true; },
       [](M& m) { m.holds_receiver = false; }, {}, nullptr},
      {"v", [](M& m, Rng& r) { m.v = nonempty_dv(r); },
       [](M& m) { m.v.clear(); }, F::kV,
       [](E& e, const M& m) { e.dependency_vector(m.v); }},
      {"self_row", [](M& m, Rng& r) { m.self_row = nonempty_dv(r); },
       [](M& m) { m.self_row.clear(); }, F::kSelfRow,
       [](E& e, const M& m) { e.dependency_vector(m.self_row); }},
      {"behalf", [](M& m, Rng& r) { m.behalf = nonempty_dv(r); },
       [](M& m) { m.behalf.clear(); }, F::kBehalf,
       [](E& e, const M& m) { e.dependency_vector(m.behalf); }},
      {"behalf_rows",
       [](M& m, Rng& r) {
         m.behalf_rows.emplace(P(1 + r.below(40)), nonempty_dv(r));
       },
       [](M& m) { m.behalf_rows.clear(); }, F::kBehalfRows,
       [](E& e, const M& m) { e.row_map(m.behalf_rows); }},
      {"reply_stamp", [](M& m, Rng& r) { m.reply_stamp = 1 + r.below(900); },
       [](M& m) { m.reply_stamp = 0; }, F::kReplyStamps,
       [](E& e, const M& m) { e.varint(m.reply_stamp); }},
      {"echo", [](M& m, Rng& r) { m.echo = 1 + r.below(900); },
       [](M& m) { m.echo = 0; }, F::kReplyStamps,
       [](E& e, const M& m) { e.varint(m.echo); }},
      {"rows",
       [](M& m, Rng& r) {
         const ProcessId q = P(1 + r.below(40));
         m.rows.emplace(q, nonempty_dv(r));
         m.row_revs.emplace(q, 1 + r.below(500));
       },
       [](M& m) {
         m.rows.clear();
         m.row_revs.clear();
       },
       F::kRows, [](E& e, const M& m) { e.row_batch(m.rows, m.row_revs); }},
      {"row_acks",
       [](M& m, Rng& r) { m.row_acks.emplace(P(1 + r.below(40)), r.below(9)); },
       [](M& m) { m.row_acks.clear(); }, F::kRowAcks,
       [](E& e, const M& m) { e.u64_map(m.row_acks); }},
      {"dead", [](M& m, Rng& r) { m.dead = nonempty_set(r); },
       [](M& m) { m.dead.clear(); }, F::kDead,
       [](E& e, const M& m) { e.process_set(m.dead); }},
      {"condemned", [](M& m, Rng& r) { m.condemned = nonempty_set(r); },
       [](M& m) { m.condemned.clear(); }, F::kCondemned,
       [](E& e, const M& m) { e.process_set(m.condemned); }},
  };
  return all;
}

/// A control message with exactly the presences named by the bits of
/// `combo` (bit i: presences()[i]).
GgdMessage message_with(std::uint64_t combo, Rng& rng) {
  GgdMessage m;
  m.from = P(1 + rng.below(300));
  m.to = P(1 + rng.below(300));
  for (std::size_t i = 0; i < presences().size(); ++i) {
    if ((combo >> i) & 1) {
      presences()[i].set(m, rng);
    }
  }
  return m;
}

/// The combination with every flag and field present.
std::uint64_t every_presence() {
  return (std::uint64_t{1} << presences().size()) - 1;
}

/// Whether a message is one a sender can build: `current` only on a reply
/// that leaves out `v` and `self_row`.
bool well_formed(const GgdMessage& m) {
  return !m.current || (m.reply && m.v.empty() && m.self_row.empty());
}

std::vector<std::uint8_t> encode_control(const GgdMessage& m) {
  std::vector<std::uint8_t> buf;
  wire::Encoder enc(buf);
  wire::encode_message(
      enc, wire::WireMessage{MessageKind::kGgdVector, wire::GgdControl{m}});
  return buf;
}

std::size_t sum(const wire::GgdFieldBytes& parts) {
  std::size_t n = 0;
  for (std::size_t part : parts) {
    n += part;
  }
  return n;
}

TEST(WireCodec, EveryPresenceMaskCombinationRoundTrips) {
  Rng rng(2020);
  const std::uint64_t combos = std::uint64_t{1} << presences().size();
  ASSERT_EQ(combos, std::uint64_t{1} << 14) << "four flags, ten fields";
  std::size_t rejected = 0;
  for (std::uint64_t combo = 0; combo < combos; ++combo) {
    const GgdMessage m = message_with(combo, rng);
    const std::vector<std::uint8_t> buf = encode_control(m);
    wire::Decoder dec(buf);
    const auto decoded = wire::decode_message(dec);
    if (!well_formed(m)) {
      ASSERT_FALSE(decoded.has_value()) << "combination " << combo;
      ASSERT_EQ(dec.error(), wire::Decoder::Error::kMalformed)
          << "combination " << combo;
      ++rejected;
      continue;
    }
    ASSERT_TRUE(decoded.has_value()) << "combination " << combo;
    ASSERT_TRUE(dec.done()) << "combination " << combo;
    ASSERT_EQ(std::get<wire::GgdControl>(decoded->body).msg, m)
        << "combination " << combo;
    // The per-field ledger's parts sum to the framed size, and a part
    // has bytes only when one of its fields is present.
    const wire::GgdFieldBytes parts = wire::ggd_field_bytes(m);
    ASSERT_EQ(sum(parts),
              wire::encoded_size(wire::WireMessage{MessageKind::kGgdVector,
                                                   wire::GgdControl{m}}))
        << "combination " << combo;
    std::array<bool, wire::kGgdFieldCount> present{};
    for (std::size_t i = 0; i < presences().size(); ++i) {
      if (presences()[i].field && ((combo >> i) & 1) != 0) {
        present[static_cast<std::size_t>(*presences()[i].field)] = true;
      }
    }
    for (std::size_t f = 1; f < wire::kGgdFieldCount; ++f) {
      ASSERT_EQ(parts[f] > 0, present[f])
          << wire::ggd_field_name(static_cast<wire::GgdField>(f))
          << " in combination " << combo;
    }
  }
  // `current` is set in half the combinations; an eighth of those are on
  // a reply without `v` and `self_row`.
  EXPECT_EQ(rejected, combos / 2 - combos / 16);
}

TEST(WireCodec, CurrentIsRejectedOffAReplyAndBesideVOrSelfRow) {
  GgdMessage reply;
  reply.from = P(4);
  reply.to = P(7);
  reply.reply = true;
  reply.current = true;
  reply.reply_stamp = 12;
  const auto decodes = [](const GgdMessage& m) {
    const std::vector<std::uint8_t> buf = encode_control(m);
    wire::Decoder dec(buf);
    return wire::decode_message(dec).has_value();
  };
  EXPECT_TRUE(decodes(reply));
  GgdMessage inquiry = reply;
  inquiry.reply = false;
  inquiry.inquiry = true;
  EXPECT_FALSE(decodes(inquiry)) << "current on an inquiry";
  GgdMessage with_v = reply;
  with_v.v.set(P(4), Timestamp::creation(3));
  EXPECT_FALSE(decodes(with_v)) << "a current reply carrying v";
  GgdMessage with_row = reply;
  with_row.self_row.set(P(2), Timestamp::creation(1));
  EXPECT_FALSE(decodes(with_row)) << "a current reply carrying self_row";
}

TEST(WireCodec, AbsentFieldsCostNoBytes) {
  Rng rng(4242);
  for (int round = 0; round < 50; ++round) {
    const GgdMessage full = message_with(every_presence(), rng);
    const std::size_t full_size = encode_control(full).size();
    for (const Presence& p : presences()) {
      GgdMessage without = full;
      p.clear(without);
      std::vector<std::uint8_t> alone;
      wire::Encoder enc(alone);
      if (p.alone != nullptr) {
        p.alone(enc, full);
      }
      // Dropping a field saves exactly its own encoding, and a flag saves
      // nothing; either may also save the mask's second byte when its bit
      // was the only one there.
      const std::size_t saved = full_size - encode_control(without).size();
      EXPECT_GE(saved, alone.size()) << p.name;
      EXPECT_LE(saved, alone.size() + 1) << p.name;
    }
  }
}

/// The presence mask of an encoded control message: the varint after its
/// kind/tag byte.
std::uint64_t mask_of(const std::vector<std::uint8_t>& encoded) {
  wire::Decoder dec(encoded.data() + 1, encoded.size() - 1);
  return dec.varint();
}

/// A control message framed by hand: kind/tag byte, `mask`, from, to.
std::vector<std::uint8_t> hand_framed(std::uint64_t mask) {
  std::vector<std::uint8_t> buf;
  wire::Encoder enc(buf);
  enc.u8(static_cast<std::uint8_t>(
      static_cast<unsigned>(MessageKind::kGgdInquiry) << 4 |
      wire::Body{wire::GgdControl{}}.index()));
  enc.varint(mask);
  enc.process_id(P(5));
  enc.process_id(P(9));
  return buf;
}

TEST(WireCodec, UnknownMaskBitsAreRejected) {
  // A message with every flag and field set names every bit the decoder
  // knows; any other bit is malformed, alone or beside known ones.
  Rng rng(8);
  const std::uint64_t known =
      mask_of(encode_control(message_with(every_presence(), rng)));
  ASSERT_EQ(known, every_presence()) << "the known bits are the low ones";
  // Every bit above them is rejected, 14 and 15 included.
  for (int bit = std::popcount(known); bit < 64; ++bit) {
    const std::uint64_t b = std::uint64_t{1} << bit;
    for (const std::uint64_t mask : {b, b | 1}) {
      const std::vector<std::uint8_t> buf = hand_framed(mask);
      wire::Decoder dec(buf);
      EXPECT_FALSE(wire::decode_message(dec).has_value()) << "bit " << bit;
      EXPECT_EQ(dec.error(), wire::Decoder::Error::kMalformed) << "bit " << bit;
    }
  }
}

TEST(WireCodec, PresentButEmptyFieldsAreRejected) {
  // A message with one field, whose encoding is swapped for the field's
  // empty encoding (`reply_stamp`: zero) under the same mask. No encoder
  // marks an empty field present, so the decoder must not accept one.
  Rng rng(9);
  for (std::size_t i = 0; i < presences().size(); ++i) {
    const Presence& p = presences()[i];
    if (!p.field) {
      continue;
    }
    const GgdMessage m = message_with(std::uint64_t{1} << i, rng);
    std::vector<std::uint8_t> buf = encode_control(m);
    buf.resize(wire::ggd_field_bytes(m)[0]);  // kind/tag, mask, from, to
    GgdMessage empty = m;
    p.clear(empty);
    wire::Encoder enc(buf);
    p.alone(enc, empty);
    wire::Decoder dec(buf);
    EXPECT_FALSE(wire::decode_message(dec).has_value()) << p.name;
    EXPECT_EQ(dec.error(), wire::Decoder::Error::kMalformed) << p.name;
  }
}

TEST(WireCodec, OutOfRangeKindAndTagNibblesAreRejected) {
  const unsigned kinds = static_cast<unsigned>(MessageKind::kCount);
  const unsigned tags = std::variant_size_v<wire::Body>;
  for (unsigned byte = 0; byte < 256; ++byte) {
    // A ping body is empty, so an in-range byte decodes on its own.
    const std::vector<std::uint8_t> buf{static_cast<std::uint8_t>(byte)};
    wire::Decoder dec(buf);
    const auto decoded = wire::decode_message(dec);
    const bool in_range = (byte >> 4) < kinds && (byte & 0xf) < tags;
    if (!in_range) {
      EXPECT_FALSE(decoded.has_value()) << "byte " << byte;
      EXPECT_EQ(dec.error(), wire::Decoder::Error::kMalformed)
          << "byte " << byte;
    } else if ((byte & 0xf) == wire::Body{wire::ControlPing{}}.index()) {
      ASSERT_TRUE(decoded.has_value()) << "byte " << byte;
      EXPECT_EQ(static_cast<unsigned>(decoded->kind), byte >> 4);
      EXPECT_TRUE(std::holds_alternative<wire::ControlPing>(decoded->body));
    }
  }
}

TEST(WireCodec, TruncatedBuffersAreRejectedAtEveryLength) {
  Rng rng(31337);
  for (std::size_t i = 0; i < 80; ++i) {
    // Every shape, then control messages with every flag and field set.
    const wire::WireMessage msg =
        i < 70 ? random_message(rng, i)
               : wire::WireMessage{
                     MessageKind::kGgdInquiry,
                     wire::GgdControl{message_with(every_presence(), rng)}};
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    wire::encode_message(enc, msg);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      wire::Decoder dec(buf.data(), len);
      const auto decoded = wire::decode_message(dec);
      // A strict prefix must either fail to decode or fail to consume the
      // (shorter) buffer exactly — it can never silently pass for the
      // original: the framing is a prefix code.
      EXPECT_FALSE(decoded.has_value() && dec.done() && *decoded == msg);
      if (decoded.has_value()) {
        // Tolerated only when the prefix is itself a complete encoding of
        // a *different* value; dec.ok() must reflect no underflow.
        EXPECT_TRUE(dec.ok());
      }
    }
  }
}

TEST(WireCodec, MalformedBytesNeverCrashTheDecoder) {
  Rng rng(555);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(40));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    wire::Decoder dec(junk);
    (void)wire::decode_message(dec);  // must not abort or read out of bounds
  }
}

TEST(WireCodec, OverlongVarintsAreRejected) {
  // {0x80, 0x00} is a two-byte encoding of 0: over-long forms must fail
  // so every value has exactly one wire representation.
  for (const std::vector<std::uint8_t>& bytes :
       {std::vector<std::uint8_t>{0x80, 0x00},
        std::vector<std::uint8_t>{0xff, 0x00},
        std::vector<std::uint8_t>{0x81, 0x80, 0x00}}) {
    wire::Decoder dec(bytes);
    (void)dec.varint();
    EXPECT_FALSE(dec.ok());
  }
}

TEST(WireCodec, VarintBoundaryAdversarialByteStrings) {
  using Error = wire::Decoder::Error;
  struct Case {
    std::vector<std::uint8_t> bytes;
    bool accept;
    std::uint64_t value;  // when accepted
    Error error;          // when rejected
  };
  const std::uint8_t c = 0x80;  // continuation byte contributing 0 bits
  const std::vector<Case> cases = {
      // Ten-byte encodings probe shift == 63: exactly one payload bit
      // remains, so a final byte of 1 is the largest canonical form...
      {{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
       true, ~std::uint64_t{0}, Error::kNone},
      {{c, c, c, c, c, c, c, c, c, 0x01},
       true, std::uint64_t{1} << 63, Error::kNone},
      // ...a final byte of 2 shifts a bit past the 64th (overflow)...
      {{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
       false, 0, Error::kMalformed},
      // ...and a tenth continuation byte can never terminate in time.
      {{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00},
       false, 0, Error::kMalformed},
      // Over-long zero continuations at every position are non-canonical.
      {{c, 0x00}, false, 0, Error::kMalformed},
      {{0xff, 0x00}, false, 0, Error::kMalformed},
      {{c, c, c, c, c, c, c, c, c, 0x00}, false, 0, Error::kMalformed},
      // A bare zero IS canonical (shift 0: nothing over-long about it).
      {{0x00}, true, 0, Error::kNone},
      // Truncations: the buffer ends while the continuation bit demands
      // more — distinguishable from malformed bytes.
      {{}, false, 0, Error::kTruncated},
      {{c}, false, 0, Error::kTruncated},
      {{0xff, 0xff, 0xff}, false, 0, Error::kTruncated},
      {{c, c, c, c, c, c, c, c, c}, false, 0, Error::kTruncated},
  };
  for (const Case& tc : cases) {
    wire::Decoder dec(tc.bytes);
    const std::uint64_t v = dec.varint();
    if (tc.accept) {
      EXPECT_TRUE(dec.ok());
      EXPECT_EQ(v, tc.value);
      EXPECT_TRUE(dec.done());
    } else {
      EXPECT_FALSE(dec.ok());
      EXPECT_EQ(dec.error(), tc.error);
    }
  }
}

TEST(WireCodec, VarintAcceptanceImpliesCanonicalReencoding) {
  // Property over adversarial random byte strings: whenever the decoder
  // accepts a varint, re-encoding the decoded value must reproduce the
  // consumed bytes exactly — i.e. the accepted language contains ONLY
  // canonical encodings (no second representation of any value).
  Rng rng(0xadbeef);
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> junk(1 + rng.below(14));
    for (auto& b : junk) {
      // Bias towards continuation markers and tiny payloads so deep
      // varint prefixes are actually reached.
      b = rng.chance(0.6) ? static_cast<std::uint8_t>(0x80 | rng.below(4))
                          : static_cast<std::uint8_t>(rng.below(256));
    }
    wire::Decoder dec(junk);
    const std::uint64_t v = dec.varint();
    if (!dec.ok()) {
      EXPECT_NE(dec.error(), wire::Decoder::Error::kNone);
      continue;
    }
    ++accepted;
    std::vector<std::uint8_t> canon;
    wire::Encoder enc(canon);
    enc.varint(v);
    ASSERT_EQ(canon.size(), dec.consumed());
    EXPECT_TRUE(std::equal(canon.begin(), canon.end(), junk.begin()));
  }
  EXPECT_GT(accepted, 0u);
}

TEST(WireCodec, TruncationAndMalformednessStayDistinguishable) {
  // Truncating any canonical encoding yields kTruncated at every strict
  // prefix cut mid-varint; flipping its final byte into a redundant zero
  // continuation yields kMalformed. The transport relies on the
  // distinction (short read vs protocol violation).
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next() >> rng.below(64);
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    enc.varint(v);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      wire::Decoder dec(buf.data(), len);
      (void)dec.varint();
      EXPECT_FALSE(dec.ok());
      EXPECT_EQ(dec.error(), wire::Decoder::Error::kTruncated);
    }
    if (!buf.empty() && buf.size() < 10) {
      // Rebuild with an over-long tail: continuation bit on the final
      // byte, then a zero terminator. (A varint encoding is never empty;
      // the guard and the element-wise copy keep -Wstringop-overflow
      // from seeing a potentially-empty vector's back().)
      std::vector<std::uint8_t> overlong(buf.begin(), buf.end() - 1);
      overlong.push_back(static_cast<std::uint8_t>(buf[buf.size() - 1] | 0x80));
      overlong.push_back(0x00);
      wire::Decoder dec(overlong);
      (void)dec.varint();
      EXPECT_FALSE(dec.ok());
      EXPECT_EQ(dec.error(), wire::Decoder::Error::kMalformed);
    }
  }
}

TEST(WireCodec, NonCanonicalDeltaIsRejected) {
  // Two entries with a zero delta (duplicate process id) are not a
  // canonical encoding and must fail.
  std::vector<std::uint8_t> buf;
  wire::Encoder enc(buf);
  enc.varint(2);            // count
  enc.varint(5);            // first id
  enc.timestamp(Timestamp::creation(1));
  enc.varint(0);            // zero delta: same id again
  enc.timestamp(Timestamp::creation(2));
  wire::Decoder dec(buf);
  (void)dec.dependency_vector();
  EXPECT_FALSE(dec.ok());
}

}  // namespace
}  // namespace cgc
