// Wire golden for the threaded host's site state machine.
//
// The threaded conformance tier proves a SiteNode agrees with its own
// replay; it cannot notice when both sides change together. This test
// pins the bytes themselves. Three SiteNodes run on one thread over
// migration-free fuzz traces; ops, packets and sweep slices go through one
// FIFO in a fixed order, each site's output is framed by a
// PacketAssembler after every input, and the hash covers every emitted
// packet (destination and bytes, in emission order) plus each site's
// removal sequence. An unbounded and a budget-5 sweep schedule are pinned
// separately: the budgeted one is where the generational filter, and so
// which processes an input re-marks hot, becomes visible on the wire.
//
// The hashes were recorded before the site logic was shared with the
// simulator host. Re-record them only in a commit that says it changes
// the threaded wire output, and why.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ggd/sweep.hpp"
#include "runtime_mt/placement.hpp"
#include "runtime_mt/site_node.hpp"
#include "runtime_mt/transport.hpp"
#include "scenario/spec.hpp"

namespace cgc::runtime_mt {
namespace {

constexpr std::uint64_t kSites = 3;
constexpr std::size_t kSweepRounds = 16;
constexpr std::size_t kOpsPerSweep = 4;

std::uint64_t fnv_byte(std::uint64_t h, std::uint8_t b) {
  h ^= b;
  return h * 1099511628211ULL;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return h;
}

struct GoldenRun {
  std::uint64_t hash = 1469598103934665603ULL;
  std::size_t packets = 0;
  std::size_t removed = 0;
};

/// One input in the shared FIFO: an op, a framed packet, or a sweep slice.
struct Input {
  enum class Kind : std::uint8_t { kOp, kPacket, kSweep };
  Kind kind = Kind::kOp;
  SiteId site;
  std::size_t op_index = 0;
  std::vector<std::uint8_t> bytes{};
};

GoldenRun run_sites(std::uint64_t seed, std::uint64_t budget) {
  ScenarioSpec spec = spec_from_seed(seed);
  spec.w_migrate = 0;
  const std::vector<MutatorOp> ops = generate_trace(spec);
  const Placement placement(kSites, ops);

  std::vector<std::unique_ptr<SiteNode>> nodes;
  std::vector<std::unique_ptr<PacketAssembler>> assemblers;
  for (std::uint64_t s = 0; s < kSites; ++s) {
    nodes.push_back(std::make_unique<SiteNode>(SiteId{s}, placement,
                                               LogKeepingMode::kRobust));
    assemblers.push_back(std::make_unique<PacketAssembler>(SiteId{s}));
    PacketAssembler& assembler = *assemblers.back();
    nodes.back()->set_sender(
        [&assembler](SiteId to, const wire::WireMessage& msg) {
          (void)assembler.add(to, msg);
        });
  }

  GoldenRun out;
  std::deque<Input> fifo;
  const auto drain = [&] {
    while (!fifo.empty()) {
      Input in = std::move(fifo.front());
      fifo.pop_front();
      SiteNode& node = *nodes[in.site.value()];
      switch (in.kind) {
        case Input::Kind::kOp:
          out.hash = fnv(out.hash, node.apply(ops[in.op_index]) ? 1 : 0);
          break;
        case Input::Kind::kPacket:
          node.deliver_packet(in.bytes);
          break;
        case Input::Kind::kSweep:
          if (!node.sweep_slice(budget)) {
            fifo.push_back(Input{.kind = Input::Kind::kSweep,
                                 .site = in.site});
          }
          break;
      }
      for (PacketAssembler::Packet& pkt :
           assemblers[in.site.value()]->take()) {
        out.hash = fnv(out.hash, pkt.to.value());
        out.hash = fnv(out.hash, pkt.bytes.size());
        for (std::uint8_t b : pkt.bytes) {
          out.hash = fnv_byte(out.hash, b);
        }
        ++out.packets;
        fifo.push_back(Input{.kind = Input::Kind::kPacket,
                             .site = pkt.to,
                             .bytes = std::move(pkt.bytes)});
      }
    }
  };

  const auto sweep_round = [&] {
    for (std::uint64_t s = 0; s < kSites; ++s) {
      fifo.push_back(Input{.kind = Input::Kind::kSweep, .site = SiteId{s}});
    }
    drain();
  };
  // Paced: every op's traffic settles before the next op, so drops find
  // their references delivered and the teardown produces real garbage.
  // Sweep rounds between ops let rows age, so an input that re-marks a
  // cold row hot changes what the next budgeted round scans.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    fifo.push_back(Input{.kind = Input::Kind::kOp,
                         .site = placement.site_for(ops[i].a),
                         .op_index = i});
    drain();
    if (i % kOpsPerSweep == kOpsPerSweep - 1) {
      sweep_round();
    }
  }
  for (std::size_t r = 0; r < kSweepRounds; ++r) {
    sweep_round();
  }
  for (const auto& node : nodes) {
    out.hash = fnv(out.hash, node->removed().size());
    for (ProcessId p : node->removed()) {
      out.hash = fnv(out.hash, p.value());
    }
    out.removed += node->removed().size();
  }
  return out;
}

struct Golden {
  std::uint64_t seed;
  std::uint64_t unbounded_hash;
  std::uint64_t budgeted_hash;
};

// Seeds ≡ 6 (mod 7) are the migration class; the threaded host has no
// migration, so the table skips them. Seed 12 is the one seed in 1..120
// whose budgeted output changes if a delivered transfer also re-marks
// its subject hot (the simulator host does, this host does not): most
// scans of a cold row emit nothing either way.
constexpr Golden kGoldens[] = {
    {1, 0xdb34b2bcb4259406ULL, 0x65f1589c9ea9b157ULL},
    {2, 0x4e8599ce8914ca26ULL, 0xd918b10ea75fe3deULL},
    {3, 0xd7a2b2ff336573e2ULL, 0xc6a75a58a3ccaef9ULL},
    {4, 0xaf4eefd3dac56d3bULL, 0x75ad83c9683af290ULL},
    {5, 0x79d7de26871cfbeeULL, 0xed36036b782e83cbULL},
    {7, 0x70069e3019a7f56cULL, 0x853d129dd673af8eULL},
    {8, 0x2aa7e7db12be4d4fULL, 0x193cfa439b81523fULL},
    {12, 0xfd68834aa8100e82ULL, 0xd2bd845d9c71ec27ULL},
};

TEST(SiteNodeGolden, UnboundedSweepsAreByteIdentical) {
  std::size_t removed = 0;
  for (const Golden& g : kGoldens) {
    const GoldenRun run = run_sites(g.seed, sweep::kUnbounded);
    EXPECT_EQ(run.hash, g.unbounded_hash)
        << "seed " << g.seed << ": threaded wire output changed (packets "
        << run.packets << ", removed " << run.removed << ", hash 0x"
        << std::hex << run.hash << ")";
    removed += run.removed;
  }
  EXPECT_GT(removed, 0u) << "the golden traces must exercise collection";
}

TEST(SiteNodeGolden, BudgetedSweepsAreByteIdentical) {
  std::size_t removed = 0;
  for (const Golden& g : kGoldens) {
    const GoldenRun run = run_sites(g.seed, 5);
    EXPECT_EQ(run.hash, g.budgeted_hash)
        << "seed " << g.seed << ": threaded wire output changed (packets "
        << run.packets << ", removed " << run.removed << ", hash 0x"
        << std::hex << run.hash << ")";
    removed += run.removed;
  }
  EXPECT_GT(removed, 0u) << "the golden traces must exercise collection";
}

}  // namespace
}  // namespace cgc::runtime_mt
