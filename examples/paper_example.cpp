// The paper's worked example (Figures 3, 4, 5, 7 and 8), replayed on the
// engine in paper-exact log-keeping mode, with the logs printed at each
// stage in the figures' fixed-width vector notation.
//
//   build/examples/example_paper_example
#include <iostream>
#include <vector>

#include "ggd/engine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cgc;

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

void print_logs(const GgdEngine& engine, const std::vector<ProcessId>& all) {
  for (ProcessId p : all) {
    const GgdProcess& proc = engine.process(p);
    std::cout << "  object " << p.str()
              << (proc.is_root() ? " (actual root)" : "")
              << (proc.removed() ? " [REMOVED]" : "") << "\n";
    std::cout << "    DV[" << p.str() << "] (self) = "
              << proc.self_row().str(all) << "\n";
    for (const auto& [q, row] : proc.log().rows()) {
      if (q != p && !row.empty()) {
        std::cout << "    DV[" << q.str() << "] (on behalf) = "
                  << row.str(all) << "\n";
      }
    }
  }
}

}  // namespace

int main() {
  Simulator sim;
  Network net(sim, NetworkConfig{.min_latency = 1,
                                 .max_latency = 1,
                                 .drop_rate = 0,
                                 .duplicate_rate = 0,
                                 .seed = 1});
  GgdEngine engine(net, LogKeepingMode::kPaperExact);
  const std::vector<ProcessId> all{P(1), P(2), P(3), P(4)};

  std::cout << "=== Figure 3: building the global root graph ===\n"
            << "(each object on its own site; 1 is the actual root)\n\n";
  engine.add_process(P(1), SiteId{1}, /*is_root=*/true);
  engine.create_object(P(1), P(2), SiteId{2});  // event e2,1
  sim.run();
  std::cout << "root 1 creates object 2            (event e2,1)\n";
  engine.create_object(P(2), P(3), SiteId{3});  // e3,1
  sim.run();
  std::cout << "object 2 creates object 3          (event e3,1)\n";
  engine.create_object(P(2), P(4), SiteId{4});  // e4,1
  sim.run();
  std::cout << "object 2 creates object 4          (event e4,1)\n";
  engine.send_third_party_ref(P(2), P(3), P(4));  // edge 4 -> 3, e3,2
  sim.run();
  std::cout << "2 sends ref-of-3 to 4: edge 4 -> 3 (event e3,2, deferred)\n";
  engine.send_third_party_ref(P(2), P(4), P(3));  // edge 3 -> 4, e4,2
  sim.run();
  std::cout << "2 sends ref-of-4 to 3: edge 3 -> 4 (event e4,2, deferred)\n";
  engine.send_own_ref(P(2), P(4));  // edge 4 -> 2, e2,2
  sim.run();
  std::cout << "2 sends its own ref to 4: edge 4 -> 2 (event e2,2)\n\n";

  std::cout << "=== Figure 7: logs after lazy log-keeping ===\n"
            << "(no control message has been sent: control traffic so far = "
            << net.stats().control_sent() << ")\n\n";
  print_logs(engine, all);

  std::cout << "\n=== Figure 8: the root drops its edge to 2 ===\n"
            << "(the destruction message carries (E1, 0, 0, 0); GGD "
               "unravels the disconnected cycle)\n\n";
  engine.drop_ref(P(1), P(2));
  sim.run();

  print_logs(engine, all);
  std::cout << "\ncollected, in order:";
  for (ProcessId p : engine.removed()) {
    std::cout << " " << p.str();
  }
  std::cout << "\nGGD control messages used: " << net.stats().control_sent()
            << "\nsites that participated: " << engine.participating_sites()
            << " (the root's site was never consulted: no consensus)\n";
  return 0;
}
