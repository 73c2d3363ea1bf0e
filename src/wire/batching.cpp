#include "wire/batching.hpp"

#include "common/assert.hpp"
#include "common/scratch.hpp"

namespace cgc::wire {

void read_packet(
    const std::vector<std::uint8_t>& bytes,
    FunctionRef<void(const PacketHeader&)> on_header,
    FunctionRef<void(const WireMessage&, std::size_t)> on_message) {
  thread_local MessageDecoder reader;
  thread_local bool reading = false;
  CGC_CHECK_MSG(!reading, "read_packet re-entered on one thread");
  struct Guard {
    bool& flag;
    explicit Guard(bool& f) : flag(f) { flag = true; }
    ~Guard() { flag = false; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
  } guard(reading);

  Decoder dec(bytes);
  PacketHeader header;
  header.from = dec.site_id();
  header.to = dec.site_id();
  header.count = dec.varint();
  CGC_CHECK_MSG(dec.ok(), "malformed packet header");
  on_header(header);
  const ScratchUse use(reader);
  for (std::uint64_t i = 0; i < header.count; ++i) {
    const std::size_t before = dec.consumed();
    CGC_CHECK_MSG(reader.decode(dec), "malformed message in packet");
    // Decoder-position delta = this message's exact framed size, so
    // delivered bytes mirror the sender-side accounting.
    on_message(reader.message(), dec.consumed() - before);
  }
  CGC_CHECK_MSG(dec.done(), "trailing bytes after last message");
}

}  // namespace cgc::wire
