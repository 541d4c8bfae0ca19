// Fuzz target: the query service's line parsers (service/wire.h).
//
// The input is split on newlines, and every line goes to all three
// parsers. Each must either accept or fail with a Status, never crash.
// Whatever a parser accepts must survive format-then-parse unchanged,
// with doubles compared bit for bit (the wire accepts inf and nan), and
// a formatted Q line must fit the server's line cap for its query size.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/result.h"
#include "service/wire.h"

namespace {

using pso::Result;
using pso::service::FormatAnswerLine;
using pso::service::FormatInfoLine;
using pso::service::FormatQueryLine;
using pso::service::ParseAnswerLine;
using pso::service::ParseInfoLine;
using pso::service::ParseQueryLine;
using pso::service::ServiceInfo;
using pso::service::WireQuery;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameOutcome(const Result<double>& a, const Result<double>& b) {
  if (a.ok() != b.ok()) return false;
  if (a.ok()) return SameBits(*a, *b);
  return a.status().code() == b.status().code() &&
         a.status().message() == b.status().message();
}

void CheckQueryLine(const std::string& line) {
  Result<WireQuery> parsed = ParseQueryLine(line);
  if (!parsed.ok()) return;
  const std::string formatted = FormatQueryLine(parsed->client, parsed->query);
  if (formatted.size() >
      pso::service::MaxRequestLineLength(parsed->query.size())) {
    std::abort();
  }
  Result<WireQuery> again = ParseQueryLine(formatted);
  if (!again.ok() || again->client != parsed->client ||
      again->query != parsed->query) {
    std::abort();
  }
}

void CheckAnswerLine(const std::string& line) {
  Result<Result<double>> parsed = ParseAnswerLine(line);
  if (!parsed.ok()) return;
  // The parsed outcome does not carry the client id; the longest one
  // exercises the widest formatting.
  Result<Result<double>> again =
      ParseAnswerLine(FormatAnswerLine(UINT64_MAX, *parsed));
  if (!again.ok() || !SameOutcome(*again, *parsed)) std::abort();
}

void CheckInfoLine(const std::string& line) {
  Result<ServiceInfo> parsed = ParseInfoLine(line);
  if (!parsed.ok()) return;
  Result<ServiceInfo> again = ParseInfoLine(FormatInfoLine(*parsed));
  if (!again.ok() || again->n != parsed->n ||
      again->max_batch != parsed->max_batch ||
      !SameBits(again->eps_per_query, parsed->eps_per_query) ||
      !SameBits(again->client_budget_eps, parsed->client_budget_eps)) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    CheckQueryLine(line);
    CheckAnswerLine(line);
    CheckInfoLine(line);
    start = end + 1;
  }
  return 0;
}
