#include "common/progress.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"

namespace pso::progress {

namespace {

// Renders a stat value compactly: integers without a fraction (work
// counters), everything else with enough digits for objectives.
std::string StatValue(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.9g", v);
}

}  // namespace

void EmitInstant(const char* engine, const char* phase, uint64_t work,
                 std::initializer_list<Stat> stats) {
  std::vector<std::pair<std::string, std::string>> args;
  args.reserve(stats.size() + 3);
  args.emplace_back("engine", engine);
  args.emplace_back("phase", phase);
  args.emplace_back("work", StrFormat("%llu",
                                      static_cast<unsigned long long>(work)));
  for (const Stat& stat : stats) {
    args.emplace_back(stat.key, StatValue(stat.value));
  }
  trace::Instant("progress.heartbeat", std::move(args));
}

void PublishDelta(const char* name, size_t total, size_t* published) {
  metrics::GetCounter(name).Add(total - *published);
  *published = total;
}

}  // namespace pso::progress
