// cgc-fuzz: run the scenario fuzzer's differential conformance check over
// any seed range, outside the 256 seeds the `fuzz` ctest label covers.
//
//   cgc-fuzz --from N --to M [--minimize]
//
// Prints one line per failing seed: its primary failure class (the first
// SAFETY failure, else the first failure), how many distinct processes
// that engine removed while they were reachable, and the report summary.
// With --minimize, each failing seed is delta-debugged against its own
// failure class (same engine, same verdict kind) and printed as a
// paste-ready regression TEST. Exits 1 when any seed fails.
//
// Runs single-threaded, about 65 seeds per second on one Xeon core in a
// RelWithDebInfo build; split a large range across several invocations.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "scenario/minimize.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace cgc;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " --from N --to M [--minimize]\n";
  return 2;
}

/// Distinct processes named by `engine`'s SAFETY failures ("... proc ID
/// ..."): the processes it removed while they were still reachable.
std::size_t wrongly_removed(const ConformanceReport& report,
                            const std::string& engine) {
  std::set<std::string> procs;
  for (const EngineRun& run : report.engines) {
    if (run.name != engine) {
      continue;
    }
    for (const std::string& f : run.failures) {
      const std::size_t at = f.find("proc ");
      if (f.rfind("SAFETY", 0) != 0 || at == std::string::npos) {
        continue;
      }
      const std::size_t begin = at + 5;
      procs.insert(f.substr(begin, f.find(' ', begin) - begin));
    }
  }
  return procs.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  bool have_from = false;
  bool have_to = false;
  bool minimize = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--from" || arg == "--to") && i + 1 < argc) {
      const std::uint64_t v = std::strtoull(argv[++i], nullptr, 10);
      (arg == "--from" ? from : to) = v;
      (arg == "--from" ? have_from : have_to) = true;
    } else if (arg == "--minimize") {
      minimize = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_from || !have_to || from > to) {
    return usage(argv[0]);
  }

  std::vector<std::uint64_t> failing;
  for (std::uint64_t seed = from; seed <= to; ++seed) {
    const ScenarioSpec spec = spec_from_seed(seed);
    const std::vector<MutatorOp> ops = generate_trace(spec);
    const ConformanceReport report = run_conformance(spec, ops);
    if (report.ok()) {
      continue;
    }
    failing.push_back(seed);
    const FailureClass primary = *report.primary_failure();
    std::cout << "seed " << seed << ": [" << primary.engine << "] "
              << primary.verdict << " wrongly_removed="
              << wrongly_removed(report, primary.engine) << "\n"
              << report.summary() << "\n";
    if (minimize) {
      const std::vector<MutatorOp> minimal =
          minimize_trace(ops, same_failure(spec, primary));
      std::cout << "--- minimized (" << minimal.size() << " ops) ---\n"
                << format_regression_test(spec, minimal);
    }
    std::cout << std::flush;
  }
  std::cout << "failing seeds (" << failing.size() << " of "
            << (to - from + 1) << "):";
  for (std::uint64_t seed : failing) {
    std::cout << ' ' << seed;
  }
  std::cout << "\n";
  return failing.empty() ? 0 : 1;
}
