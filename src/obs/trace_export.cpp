#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

namespace cgc::obs {

namespace {

/// chrome://tracing groups events by (pid, tid). We map each site to a
/// process row (pid = site id + 1; pid 0 is reserved for engine-global
/// events) and each subject process to a thread row within its site.
std::uint64_t pid_of(const Record& r) {
  return r.site.valid() ? r.site.value() + 1 : 0;
}

std::uint64_t tid_of(const Record& r) {
  return r.a.valid() ? r.a.value() : 0;
}

void write_common(std::ostream& os, const Record& r, const char* phase) {
  os << "{\"name\":\"" << to_string(r.kind) << "\",\"ph\":\"" << phase
     << "\",\"ts\":" << r.at * 1000 << ",\"pid\":" << pid_of(r)
     << ",\"tid\":" << tid_of(r);
}

void write_args(std::ostream& os, const Record& r) {
  os << ",\"args\":{";
  switch (r.kind) {
    case EventKind::kSweepStart:
      os << "\"pending_destructions\":" << r.detail;
      break;
    case EventKind::kSweepEnd:
      os << "\"wall_us\":" << r.detail;
      break;
    case EventKind::kWalkVerdict:
      os << "\"verdict\":\"" << to_string(walk_result(r.detail))
         << "\",\"consulted\":" << walk_consulted(r.detail)
         << ",\"missing\":" << walk_missing(r.detail);
      if (r.b.valid()) {
        os << ",\"first_missing\":\"" << r.b.str() << "\"";
      }
      break;
    case EventKind::kInquiry:
      os << "\"about\":\"" << r.b.str() << "\"";
      break;
    case EventKind::kDestructionEmit:
    case EventKind::kDestructionDeliver:
      os << "\"dropper\":\"" << r.a.str() << "\",\"target\":\"" << r.b.str()
         << "\"";
      break;
    case EventKind::kRowRelay:
      os << "\"rows\":" << r.detail;
      break;
    case EventKind::kMigrateFreeze:
      os << "\"dst_site\":" << r.detail;
      break;
    case EventKind::kMigrateDeliver:
      os << "\"src_site\":" << r.detail;
      break;
    case EventKind::kMigrateBounce:
    case EventKind::kReclaim:
      os << "\"proc\":\"" << r.a.str() << "\"";
      break;
    case EventKind::kCondemned:
      os << "\"proc\":\"" << r.a.str() << "\",\"walker\":\"" << r.b.str()
         << "\"";
      break;
  }
  os << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Journal& journal) {
  os << "[";
  bool first = true;

  // Name each process row so the Perfetto sidebar reads "site N" instead
  // of bare pids.
  std::set<std::uint64_t> pids;
  journal.for_each([&](const Record& r) { pids.insert(pid_of(r)); });
  for (std::uint64_t pid : pids) {
    os << (first ? "" : ",") << "\n"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\""
       << (pid == 0 ? std::string("engine")
                    : "site " + std::to_string(pid - 1))
       << "\"}}";
    first = false;
  }

  journal.for_each([&](const Record& r) {
    os << (first ? "" : ",") << "\n";
    first = false;
    if (r.kind == EventKind::kSweepEnd) {
      // Render the sweep as a span: duration = wall µs (min 1 so it is
      // visible), anchored at the sweep's sim tick.
      write_common(os, r, "X");
      os << ",\"dur\":" << std::max<std::uint64_t>(r.detail, 1);
      write_args(os, r);
      return;
    }
    write_common(os, r, "i");
    os << ",\"s\":\"p\"";  // instant scoped to its process lane
    write_args(os, r);
  });
  os << "\n]\n";
}

}  // namespace cgc::obs
