// Wire-codec property tests: round-trip identity over seeded-random
// values for every primitive and every message body, and rejection of
// every truncated buffer.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
  m.sync_epoch = rng.below(8);
  m.ack_epoch = rng.below(8);
  m.dead = random_set(rng);
  m.inquiry = rng.chance(0.2);
  m.reply = rng.chance(0.2);
  m.has_out_edges = rng.chance(0.3);
  if (m.has_out_edges) {
    m.out_edges = random_set(rng);
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

TEST(WireCodec, CondemnedSetRoundTripsAndCostsNothingWhenAbsent) {
  Rng rng(4242);
  GgdMessage without = random_ggd_message(rng);
  without.condemned.clear();
  GgdMessage with = without;
  with.condemned = {P(3), P(9), P(700)};
  const auto encode = [](const GgdMessage& m) {
    std::vector<std::uint8_t> buf;
    wire::Encoder enc(buf);
    wire::encode_message(
        enc, wire::WireMessage{MessageKind::kGgdDestruction,
                               wire::GgdControl{m}});
    return buf;
  };
  const std::vector<std::uint8_t> plain = encode(without);
  const std::vector<std::uint8_t> marked = encode(with);
  for (const auto* bytes : {&plain, &marked}) {
    wire::Decoder dec(*bytes);
    const auto decoded = wire::decode_message(dec);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(std::get<wire::GgdControl>(decoded->body).msg,
              bytes == &plain ? without : with);
  }
  // The set is appended behind its flag bit: every byte before it is the
  // set-less encoding but for that one bit of the flags byte.
  std::vector<std::uint8_t> set_bytes;
  wire::Encoder set_enc(set_bytes);
  set_enc.process_set(with.condemned);
  ASSERT_EQ(marked.size(), plain.size() + set_bytes.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    differing += marked[i] != plain[i] ? 1 : 0;
  }
  EXPECT_EQ(differing, 1u);
  EXPECT_TRUE(std::equal(set_bytes.begin(), set_bytes.end(),
                         marked.end() - static_cast<std::ptrdiff_t>(
                                            set_bytes.size())));
}

TEST(WireCodec, TruncatedBuffersAreRejectedAtEveryLength) {
  Rng rng(31337);
  for (std::size_t i = 0; i < 70; ++i) {
    const wire::WireMessage msg = random_message(rng, i);
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
