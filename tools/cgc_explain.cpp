// cgc-explain: replay a scenario seed with full observability and answer
// "why is object X not yet collected at tick T".
//
//   cgc-explain --seed N [--proc ID] [--tick T]
//               [--perfetto FILE] [--metrics FILE]
//               [--trace-out FILE] [--verify-trace FILE]
//
// The run is the conformance runner's GGD leg (`drive_ggd`), so it prints
// the same verdict cgc-fuzz judged: one line per SAFETY or COMPLETENESS
// failure, and the exit code is 1 when there is any. With --proc, it then
// prints the causal explanation for that process (at --tick, default: end
// of run). Without it, one explanation line per residual-garbage process
// — the "why is collection stalled" report.
//
// --perfetto exports the journal as Chrome-trace JSON (open at
// https://ui.perfetto.dev), --metrics dumps the registry as JSON,
// --trace-out serializes the recorded WireTrace, and --verify-trace
// checks a previously recorded trace byte-for-byte against this re-run
// (replay determinism: same seed, same packets).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "obs/explain.hpp"
#include "obs/trace_export.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cgc;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --seed N [--proc ID] [--tick T] [--perfetto FILE]"
               " [--metrics FILE] [--trace-out FILE] [--verify-trace FILE]\n";
  return 2;
}

void print_explanation(const obs::Explanation& e) {
  std::cout << "cause: " << obs::to_string(e.cause) << "\n"
            << "  " << e.answer << "\n";
  if (!e.evidence.empty()) {
    std::cout << "  evidence (newest first):\n";
    for (const std::string& line : e.evidence) {
      std::cout << "    " << line << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t proc = 0;
  bool have_proc = false;
  std::optional<SimTime> tick;
  std::string perfetto_path;
  std::string metrics_path;
  std::string trace_out_path;
  std::string verify_trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--proc") {
      proc = std::strtoull(next(), nullptr, 10);
      have_proc = true;
    } else if (arg == "--tick") {
      tick = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--perfetto") {
      perfetto_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--trace-out") {
      trace_out_path = next();
    } else if (arg == "--verify-trace") {
      verify_trace_path = next();
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed) {
    return usage(argv[0]);
  }

  const std::unique_ptr<obs::SeedReplay> replay = obs::replay_seed(seed);
  Scenario& s = *replay->scenario;
  const EngineRun& verdict = replay->verdict;
  const SimTime end = s.sim().now();
  const SimTime at = tick.value_or(end);
  const int status = verdict.ok() ? 0 : 1;

  std::cout << "seed " << seed << ": " << replay->spec.describe() << "\n"
            << "  ops applied/skipped: "
            << replay->ops.size() - verdict.skipped_ops << "/"
            << verdict.skipped_ops << ", end tick " << end << "\n"
            << "  removed " << s.removed().size() << " of "
            << s.process_count() << " processes, residual garbage "
            << s.residual_garbage().size() << "\n"
            << "  journal records " << replay->journal.recorded()
            << " (kept " << replay->journal.size() << "), wire packets "
            << replay->trace.size() << "\n";
  for (const std::string& f : verdict.failures) {
    std::cout << "  [" << verdict.name << "] " << f << "\n";
  }

  if (!verify_trace_path.empty()) {
    std::ifstream in(verify_trace_path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << verify_trace_path << "\n";
      return 1;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const auto recorded = wire::WireTrace::deserialize(bytes);
    if (!recorded.has_value()) {
      std::cerr << "malformed trace file " << verify_trace_path << "\n";
      return 1;
    }
    if (recorded->packets() == replay->trace.packets()) {
      std::cout << "  verify-trace: OK — " << recorded->size()
                << " packets identical to the re-run\n";
    } else {
      std::cout << "  verify-trace: MISMATCH — recorded " << recorded->size()
                << " packets, re-run produced " << replay->trace.size()
                << "\n";
      return 1;
    }
  }

  if (!trace_out_path.empty()) {
    const std::vector<std::uint8_t> bytes = replay->trace.serialize();
    std::ofstream out(trace_out_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::cout << "  wire trace -> " << trace_out_path << " (" << bytes.size()
              << " bytes)\n";
  }
  if (!perfetto_path.empty()) {
    std::ofstream out(perfetto_path);
    obs::write_chrome_trace(out, replay->journal);
    std::cout << "  perfetto trace -> " << perfetto_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    replay->registry.write_json(out);
    std::cout << "  metrics -> " << metrics_path << "\n";
  }

  if (have_proc) {
    std::cout << "why is P" << proc << " not collected at tick " << at
              << "?\n";
    print_explanation(obs::explain_not_collected(
        replay->journal, s.engine(), ProcessId{proc}, at, &s.oracle()));
    return status;
  }

  const std::set<ProcessId> residual = s.residual_garbage();
  if (residual.empty()) {
    std::cout << "no residual garbage: every unreachable process was "
                 "collected\n";
    return status;
  }
  std::cout << "residual garbage at tick " << at << ":\n";
  for (ProcessId p : residual) {
    const obs::Explanation e = obs::explain_not_collected(
        replay->journal, s.engine(), p, at, &s.oracle());
    std::cout << "  " << p.str() << ": [" << obs::to_string(e.cause) << "] "
              << e.answer << "\n";
  }
  return status;
}
