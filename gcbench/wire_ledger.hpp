// Offline pass over captured packets: decode and re-encode every packet
// (timed per byte), check that the codec reproduces the captured bytes,
// and attribute every GGD control byte to the message field that carries
// it.
//
// The pass runs after a traced pass has finished, over packets the pass
// captured, so none of its cost lands in the pass's own numbers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/message.hpp"
#include "tracer.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace gcb {

class WireLedger {
 public:
  /// One field of a GgdControl body, in the order the metrics print them.
  enum Field : std::uint8_t {
    kRows,
    kV,
    kSelfRow,
    kBehalf,
    kBehalfRows,
    kRowAcks,
    kDead,
    kOther,  // framing, ids, epochs, flags, out-edges
    kFieldCount,
  };
  static const char* field_name(Field f) {
    static const char* const kNames[] = {"rows",        "v",        "self_row",
                                         "behalf",      "behalf_rows",
                                         "row_acks",    "dead",     "other"};
    return kNames[f];
  }

  /// Feeds one packet (full framing, as sent). Returns false when the
  /// packet does not decode or does not re-encode to the same bytes.
  bool add(const std::vector<std::uint8_t>& packet) {
    const std::int64_t t0 = now_ns();
    cgc::wire::Decoder dec(packet);
    const cgc::SiteId from = dec.site_id();
    const cgc::SiteId to = dec.site_id();
    const std::uint64_t count = dec.varint();
    std::vector<cgc::wire::WireMessage> msgs;
    for (std::uint64_t i = 0; dec.ok() && i < count; ++i) {
      std::optional<cgc::wire::WireMessage> m = cgc::wire::decode_message(dec);
      if (!m.has_value()) {
        break;
      }
      msgs.push_back(std::move(*m));
    }
    const bool decoded = dec.done() && msgs.size() == count;
    const std::int64_t t1 = now_ns();
    std::vector<std::uint8_t> out;
    out.reserve(packet.size());
    {
      cgc::wire::Encoder enc(out);
      enc.site_id(from);
      enc.site_id(to);
      enc.varint(msgs.size());
      for (const cgc::wire::WireMessage& m : msgs) {
        cgc::wire::encode_message(enc, m);
      }
    }
    const std::int64_t t2 = now_ns();
    decode_ns_ += t1 - t0;
    encode_ns_ += t2 - t1;
    bytes_ += packet.size();
    for (const cgc::wire::WireMessage& m : msgs) {
      account(m);
    }
    return decoded && out == packet;
  }

  [[nodiscard]] double decode_ns_per_byte() const {
    return bytes_ == 0 ? 0 : static_cast<double>(decode_ns_) / bytes_;
  }
  [[nodiscard]] double encode_ns_per_byte() const {
    return bytes_ == 0 ? 0 : static_cast<double>(encode_ns_) / bytes_;
  }
  [[nodiscard]] std::uint64_t field_bytes(Field f) const {
    return field_bytes_[f];
  }
  [[nodiscard]] double v_entries_mean() const { return mean(v_entries_); }
  [[nodiscard]] double rows_per_msg_mean() const { return mean(rows_); }
  [[nodiscard]] double row_entries_mean() const {
    return rows_ == 0 ? 0 : static_cast<double>(row_entries_) / rows_;
  }
  /// Mean `dead` set size over the first and the last tenth of the
  /// control messages, in capture order: growth over a run shows here.
  [[nodiscard]] double dead_first_decile() const { return decile(false); }
  [[nodiscard]] double dead_last_decile() const { return decile(true); }

 private:
  template <typename F>
  static std::uint64_t size_of(F&& encode) {
    std::vector<std::uint8_t> buf;
    cgc::wire::Encoder enc(buf);
    encode(enc);
    return buf.size();
  }

  void account(const cgc::wire::WireMessage& m) {
    const auto* control = std::get_if<cgc::wire::GgdControl>(&m.body);
    if (control == nullptr) {
      return;
    }
    const cgc::GgdMessage& g = control->msg;
    const std::uint64_t total = cgc::wire::encoded_size(m);
    std::uint64_t parts[kFieldCount] = {};
    parts[kRows] = size_of([&](auto& e) { e.row_batch(g.rows, g.row_revs); });
    parts[kV] = size_of([&](auto& e) { e.dependency_vector(g.v); });
    parts[kSelfRow] = size_of([&](auto& e) { e.dependency_vector(g.self_row); });
    parts[kBehalf] = size_of([&](auto& e) { e.dependency_vector(g.behalf); });
    parts[kBehalfRows] = size_of([&](auto& e) { e.row_map(g.behalf_rows); });
    parts[kRowAcks] = size_of([&](auto& e) { e.u64_map(g.row_acks); });
    parts[kDead] = size_of([&](auto& e) { e.process_set(g.dead); });
    std::uint64_t named = 0;
    for (int f = 0; f < kOther; ++f) {
      named += parts[f];
    }
    parts[kOther] = total - named;
    for (int f = 0; f < kFieldCount; ++f) {
      field_bytes_[f] += parts[f];
    }
    ++ctrl_msgs_;
    v_entries_ += g.v.size();
    rows_ += g.rows.size();
    for (const auto& [subject, row] : g.rows) {
      row_entries_ += row.size();
    }
    dead_sizes_.push_back(static_cast<std::uint32_t>(g.dead.size()));
  }

  [[nodiscard]] double mean(std::uint64_t sum) const {
    return ctrl_msgs_ == 0 ? 0 : static_cast<double>(sum) / ctrl_msgs_;
  }

  [[nodiscard]] double decile(bool last) const {
    const std::size_t n = dead_sizes_.size() / 10;
    if (n == 0) {
      return 0;
    }
    const std::size_t begin = last ? dead_sizes_.size() - n : 0;
    double sum = 0;
    for (std::size_t i = begin; i < begin + n; ++i) {
      sum += dead_sizes_[i];
    }
    return sum / static_cast<double>(n);
  }

  std::int64_t decode_ns_ = 0;
  std::int64_t encode_ns_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t field_bytes_[kFieldCount] = {};
  std::uint64_t ctrl_msgs_ = 0;
  std::uint64_t v_entries_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t row_entries_ = 0;
  std::vector<std::uint32_t> dead_sizes_;
};

}  // namespace gcb
