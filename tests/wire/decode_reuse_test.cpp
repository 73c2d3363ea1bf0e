// In-place decoding: a MessageDecoder reused across a sequence of messages
// must yield exactly what a fresh decode of each message yields, whatever
// the previous messages left in its storage — larger or smaller row maps
// and row batches, other body shapes, and a rejected message.
#include <gtest/gtest.h>

#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "wire/batching.hpp"
#include "wire/messages.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

DependencyVector random_row(Rng& rng, std::size_t max_entries) {
  DependencyVector dv;
  const std::size_t n = rng.below(max_entries + 1);
  std::uint64_t pid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pid += 1 + rng.below(20);
    const std::uint64_t index = 1 + rng.below(5);
    dv.set(P(pid), rng.chance(0.25) ? Timestamp::destruction(index)
                                    : Timestamp::creation(index));
  }
  return dv;
}

FlatSet<ProcessId> random_set(Rng& rng, std::size_t max_entries) {
  FlatSet<ProcessId> s;
  const std::size_t n = rng.below(max_entries + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s.insert(P(1 + rng.below(500)));
  }
  return s;
}

/// A control message whose row map, row batch, sets and vectors are all
/// large when `large` is set and small (often empty) otherwise, so that
/// consecutive messages grow and shrink every container the decoder
/// reuses. Half the other messages carry a condemned set, so a message
/// without one (no mask bit, nothing encoded) often lands in storage that
/// still holds a set and must come out empty.
GgdMessage random_control(Rng& rng, bool large) {
  const std::size_t rows = large ? 8 + rng.below(8) : rng.below(3);
  const std::size_t entries = large ? 14 : 3;
  GgdMessage m;
  m.from = P(1 + rng.below(50));
  m.to = P(1 + rng.below(50));
  m.v = random_row(rng, entries);
  m.self_row = random_row(rng, entries);
  m.behalf = random_row(rng, entries / 2);
  std::uint64_t pid = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    pid += 1 + rng.below(30);
    m.rows.emplace(P(pid), random_row(rng, entries));
    m.row_revs.emplace(P(pid), 1 + rng.below(1000));
    if (rng.chance(0.5)) {
      m.behalf_rows.emplace(P(pid + 1), random_row(rng, entries));
    }
    if (rng.chance(0.7)) {
      m.row_acks.emplace(P(pid), 1 + rng.below(1000));
    }
  }
  m.dead = random_set(rng, large ? 12 : 2);
  m.inquiry = rng.chance(0.3);
  m.reply = !m.inquiry && rng.chance(0.4);
  m.holds_receiver = m.reply && rng.chance(0.5);
  m.need_rows = m.inquiry && rng.chance(0.5);
  if (m.reply && rng.chance(0.5)) {
    // A current reply: the inquirer already holds v and the self row.
    m.current = true;
    m.v.clear();
    m.self_row.clear();
  }
  if (m.reply && !m.behalf_rows.empty()) {
    m.reply_stamp = 1 + rng.below(1000);
  }
  if (m.inquiry && rng.chance(0.5)) {
    m.echo = 1 + rng.below(1000);
  }
  if (!m.inquiry && !m.reply && rng.chance(0.5)) {
    m.condemned = random_set(rng, large ? 16 : 3);
  }
  return m;
}

wire::WireMessage control_message(const GgdMessage& m) {
  return wire::WireMessage{MessageKind::kGgdInquiry, wire::GgdControl{m}};
}

std::vector<std::uint8_t> encode(const wire::WireMessage& msg) {
  std::vector<std::uint8_t> bytes;
  wire::Encoder enc(bytes);
  wire::encode_message(enc, msg);
  return bytes;
}

/// A control message that decodes up to its very last field — every row,
/// the whole batch, death knowledge — and is then rejected: its condemned
/// set repeats an id (a zero delta, which no encoder produces).
std::vector<std::uint8_t> malformed_after_rows(Rng& rng) {
  GgdMessage m = random_control(rng, /*large=*/true);
  m.condemned = {P(4), P(7)};
  std::vector<std::uint8_t> bytes = encode(control_message(m));
  // The condemned set is last: count 2, id 4, delta 3.
  EXPECT_EQ(bytes.back(), 3);
  bytes.back() = 0;
  return bytes;
}

TEST(DecodeReuse, ReusedDecoderMatchesFreshDecodeAcrossGrowAndShrink) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    wire::MessageDecoder reader;
    std::size_t rejected = 0;
    for (int i = 0; i < 30; ++i) {
      if (i == 15) {
        // One malformed message in the middle: rejected, and the next
        // valid message must come out with no stale rows.
        const std::vector<std::uint8_t> bad = malformed_after_rows(rng);
        wire::Decoder dec(bad);
        EXPECT_FALSE(reader.decode(dec)) << "seed " << seed;
        EXPECT_EQ(dec.error(), wire::Decoder::Error::kMalformed);
        ++rejected;
        continue;
      }
      wire::WireMessage sent;
      if (i % 7 == 3) {
        // Another body shape in between: the control body's storage
        // must wait aside and come back clean.
        sent = wire::WireMessage{
            MessageKind::kReferencePass,
            wire::RefTransfer{rng.next(), P(1 + rng.below(9)),
                              P(1 + rng.below(9))}};
      } else {
        sent = control_message(random_control(rng, /*large=*/i % 2 == 0));
      }
      const std::vector<std::uint8_t> bytes = encode(sent);
      wire::Decoder fresh_dec(bytes);
      const std::optional<wire::WireMessage> fresh =
          wire::decode_message(fresh_dec);
      ASSERT_TRUE(fresh.has_value());
      EXPECT_EQ(*fresh, sent);

      wire::Decoder dec(bytes);
      ASSERT_TRUE(reader.decode(dec)) << "seed " << seed << " message " << i;
      EXPECT_TRUE(dec.done());
      EXPECT_EQ(reader.message(), *fresh)
          << "seed " << seed << " message " << i;
    }
    EXPECT_EQ(rejected, 1u);
  }
}

TEST(DecodeReuse, WarmDecoderClearsEachAbsentField) {
  // A message with every flag and field, then the same message without
  // one of them: the absent field costs no byte on the wire, so only the
  // decoder can empty what the first message left in its storage.
  using Clear = void (*)(GgdMessage&);
  const std::vector<std::pair<const char*, Clear>> fields = {
      // `need_rows` exists only on an inquiry.
      {"inquiry", [](GgdMessage& m) { m.inquiry = m.need_rows = false; }},
      {"reply", [](GgdMessage& m) { m.reply = false; }},
      {"holds_receiver", [](GgdMessage& m) { m.holds_receiver = false; }},
      {"need_rows", [](GgdMessage& m) { m.need_rows = false; }},
      {"v", [](GgdMessage& m) { m.v.clear(); }},
      {"self_row", [](GgdMessage& m) { m.self_row.clear(); }},
      {"behalf", [](GgdMessage& m) { m.behalf.clear(); }},
      {"behalf_rows", [](GgdMessage& m) { m.behalf_rows.clear(); }},
      {"reply_stamp", [](GgdMessage& m) { m.reply_stamp = 0; }},
      {"echo", [](GgdMessage& m) { m.echo = 0; }},
      {"rows",
       [](GgdMessage& m) {
         m.rows.clear();
         m.row_revs.clear();
       }},
      {"row_acks", [](GgdMessage& m) { m.row_acks.clear(); }},
      {"dead", [](GgdMessage& m) { m.dead.clear(); }},
      {"condemned", [](GgdMessage& m) { m.condemned.clear(); }},
  };
  Rng rng(17);
  GgdMessage full;
  while (full.v.empty() || full.self_row.empty() || full.behalf.empty() ||
         full.behalf_rows.empty() || full.rows.empty() ||
         full.row_acks.empty() || full.dead.empty()) {
    full = random_control(rng, /*large=*/true);
  }
  full.inquiry = full.reply = full.holds_receiver = full.need_rows = true;
  full.current = false;
  full.reply_stamp = 9;
  full.echo = 5;
  full.condemned = {P(4), P(7)};
  wire::MessageDecoder reader;
  for (const auto& [name, clear] : fields) {
    GgdMessage without = full;
    clear(without);
    ASSERT_NE(without, full) << name;
    for (const GgdMessage* m : {&full, &without}) {
      const std::vector<std::uint8_t> bytes = encode(control_message(*m));
      wire::Decoder dec(bytes);
      ASSERT_TRUE(reader.decode(dec)) << name;
      EXPECT_TRUE(dec.done()) << name;
      EXPECT_EQ(std::get<wire::GgdControl>(reader.message().body).msg, *m)
          << name;
    }
  }
  // `current` excludes v and the self row, so it alternates with them.
  GgdMessage current = full;
  current.current = true;
  current.v.clear();
  current.self_row.clear();
  for (const GgdMessage* m : {&full, &current, &full}) {
    const std::vector<std::uint8_t> bytes = encode(control_message(*m));
    wire::Decoder dec(bytes);
    ASSERT_TRUE(reader.decode(dec));
    EXPECT_EQ(std::get<wire::GgdControl>(reader.message().body).msg, *m);
  }
}

TEST(DecodeReuse, CurrentOffAReplyOrBesideItsContentIsRejected) {
  Rng rng(23);
  GgdMessage reply;
  while (!reply.reply || reply.v.empty() || reply.self_row.empty()) {
    reply = random_control(rng, /*large=*/true);
  }
  reply.current = false;
  GgdMessage on_inquiry = reply;
  on_inquiry.reply = false;
  on_inquiry.inquiry = true;
  on_inquiry.v.clear();
  on_inquiry.self_row.clear();
  GgdMessage with_v = reply;
  with_v.self_row.clear();
  GgdMessage with_row = reply;
  with_row.v.clear();
  wire::MessageDecoder reader;
  for (GgdMessage bad : {on_inquiry, with_v, with_row}) {
    bad.current = true;
    const std::vector<std::uint8_t> bytes = encode(control_message(bad));
    wire::Decoder dec(bytes);
    EXPECT_FALSE(reader.decode(dec));
    EXPECT_EQ(dec.error(), wire::Decoder::Error::kMalformed);
    // The next well-formed message decodes clean.
    const std::vector<std::uint8_t> good = encode(control_message(reply));
    wire::Decoder next(good);
    ASSERT_TRUE(reader.decode(next));
    EXPECT_EQ(std::get<wire::GgdControl>(reader.message().body).msg, reply);
  }
}

TEST(DecodeReuse, WarmDecoderKeepsItsStorage) {
  Rng rng(7);
  const std::vector<std::uint8_t> bytes =
      encode(control_message(random_control(rng, /*large=*/true)));
  wire::MessageDecoder reader;
  // One decode and one clear (what ScratchUse does between packets) warm
  // the decoder up; from then on the same message needs no more storage
  // and clearing returns none.
  wire::Decoder first(bytes);
  ASSERT_TRUE(reader.decode(first));
  reader.clear();
  const std::size_t warm = reader.capacity();
  EXPECT_GT(warm, 0u);
  const std::vector<std::uint8_t> ref = encode(wire::WireMessage{
      MessageKind::kReferencePass, wire::RefTransfer{1, P(2), P(3)}});
  for (int i = 0; i < 3; ++i) {
    wire::Decoder again(bytes);
    ASSERT_TRUE(reader.decode(again));
    EXPECT_EQ(reader.capacity(), warm);
    reader.clear();
    EXPECT_EQ(reader.capacity(), warm);
    // Another body shape in between keeps the control body's storage.
    wire::Decoder other(ref);
    ASSERT_TRUE(reader.decode(other));
    EXPECT_EQ(reader.capacity(), warm);
  }
}

TEST(DecodeReuse, PacketReaderDeliversEveryMessageInOrder) {
  Rng rng(11);
  wire::BatchingChannel ch(SiteId{1}, SiteId{2});
  std::vector<wire::WireMessage> sent;
  for (int i = 0; i < 12; ++i) {
    sent.push_back(control_message(random_control(rng, i % 3 == 0)));
    (void)ch.push(sent.back());
  }
  const wire::BatchingChannel::Packet packet = ch.flush();
  std::vector<wire::WireMessage> got;
  std::size_t framed = 0;
  wire::read_packet(
      packet.bytes,
      [](const wire::PacketHeader& h) {
        EXPECT_EQ(h.from, SiteId{1});
        EXPECT_EQ(h.to, SiteId{2});
        EXPECT_EQ(h.count, 12u);
      },
      [&](const wire::WireMessage& msg, std::size_t bytes) {
        got.push_back(msg);
        framed += bytes;
        EXPECT_EQ(bytes, wire::encoded_size(msg));
      });
  EXPECT_EQ(got, sent);
  EXPECT_LT(framed, packet.bytes.size());  // the header is not a message
}

TEST(DecodeReuseDeathTest, PacketReaderRejectsReentry) {
  wire::BatchingChannel ch(SiteId{1}, SiteId{2});
  Rng rng(3);
  (void)ch.push(control_message(random_control(rng, /*large=*/false)));
  const std::vector<std::uint8_t> bytes = ch.flush().bytes;
  const auto nested = [&bytes] {
    wire::read_packet(
        bytes, [](const wire::PacketHeader&) {},
        [&bytes](const wire::WireMessage&, std::size_t) {
          wire::read_packet(
              bytes, [](const wire::PacketHeader&) {},
              [](const wire::WireMessage&, std::size_t) {});
        });
  };
  EXPECT_DEATH(nested(), "re-entered");
}

}  // namespace
}  // namespace cgc
