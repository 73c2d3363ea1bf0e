// Per-thread scratch containers with a retained-capacity cap.
//
// The per-message hot paths (the GGD closure and walk, the wire row-batch
// decoder) keep their working sets in thread_local containers so that a
// warm thread allocates nothing per message. Left alone, such a container
// keeps the capacity of the largest input its thread has ever processed,
// for the life of the thread. ScratchUse bounds that: capacity up to
// kScratchRetain elements carries over to the next use, and a use that
// grew a container past the cap hands the block back when it ends (the
// same rule BatchingChannel applies to its packet buffers).
#pragma once

#include <cstddef>
#include <tuple>

namespace cgc {

/// Elements a scratch container keeps between uses.
inline constexpr std::size_t kScratchRetain = 4096;

/// Scoped use of one or more scratch containers: clears them on entry,
/// and on exit releases the storage of any that outgrew kScratchRetain.
/// Works for any container with clear(), capacity() and move assignment.
template <typename... Cs>
class ScratchUse {
 public:
  explicit ScratchUse(Cs&... cs) : cs_(cs...) { (cs.clear(), ...); }
  ~ScratchUse() {
    std::apply([](auto&... c) { (trim(c), ...); }, cs_);
  }
  ScratchUse(const ScratchUse&) = delete;
  ScratchUse& operator=(const ScratchUse&) = delete;

 private:
  template <typename C>
  static void trim(C& c) {
    if (c.capacity() > kScratchRetain) {
      c = C{};
    }
  }

  std::tuple<Cs&...> cs_;
};

}  // namespace cgc
