#include "common/check.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "common/trace.h"

namespace pso::internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const char* msg) {
  // Raw fallback first: it must appear even if the logger deadlocks or
  // was never configured (format kept identical to the historical one).
  if (msg != nullptr) {
    std::fprintf(stderr, "PSO_CHECK failed at %s:%d: %s (%s)\n", file, line,
                 expr, msg);
  } else {
    std::fprintf(stderr, "PSO_CHECK failed at %s:%d: %s\n", file, line,
                 expr);
  }

  if (log::Initialized()) {
    log::LogMessage m(log::Level::kError, file, line);
    m.Field("check", expr);
    m << "PSO_CHECK failed";
    if (msg != nullptr) m.Field("detail", msg);
  }
  // Best-effort partial trace so the audit record of a crashed solve
  // survives (no-op unless a --trace path was registered).
  trace::Collector::Global().FlushToConfiguredPath();

  std::abort();
}

}  // namespace pso::internal
