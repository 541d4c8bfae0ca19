#include "service/wire.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

#include "common/str_util.h"

namespace pso::service {

namespace {

// Parses a non-negative decimal integer, rejecting trailing garbage.
bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  // %.17g prints every NaN as "nan" or "-nan" and drops a payload such as
  // "nan(0x7)". Keep only the sign, so a parsed line and its formatted
  // form parse to the same bits.
  if (std::isnan(v)) {
    v = std::copysign(std::numeric_limits<double>::quiet_NaN(), v);
  }
  *out = v;
  return true;
}

// "key=value" fields of the I line; returns false on shape mismatch.
bool FieldValue(const std::string& token, const char* key, std::string* out) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  *out = token.substr(prefix.size());
  return true;
}

StatusCode CodeFromName(const std::string& name) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kInfeasible, StatusCode::kUnbounded,
        StatusCode::kResourceExhausted}) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace

std::string FormatQueryLine(uint64_t client,
                            const recon::SubsetQuery& query) {
  std::string line = StrFormat("Q %llu ",
                               static_cast<unsigned long long>(client));
  line.reserve(line.size() + query.size());
  for (uint8_t bit : query) line.push_back(bit != 0 ? '1' : '0');
  return line;
}

size_t MaxRequestLineLength(size_t n) {
  constexpr size_t kMaxClientIdDigits = 20;  // UINT64_MAX
  return 2 + kMaxClientIdDigits + 1 + n;     // "Q " id " " bits
}

Result<WireQuery> ParseQueryLine(const std::string& line) {
  std::vector<std::string> parts = Split(line, ' ');
  if (parts.size() != 3 || parts[0] != "Q") {
    return Status::InvalidArgument("malformed query line");
  }
  WireQuery out;
  if (!ParseUint64(parts[1], &out.client)) {
    return Status::InvalidArgument("malformed client id");
  }
  out.query.reserve(parts[2].size());
  for (char c : parts[2]) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("query bits must be 0/1");
    }
    out.query.push_back(c == '1' ? 1 : 0);
  }
  if (out.query.empty()) {
    return Status::InvalidArgument("empty query bits");
  }
  return out;
}

std::string FormatAnswerLine(uint64_t client, const Result<double>& outcome) {
  if (outcome.ok()) {
    return StrFormat("A %llu %.17g",
                     static_cast<unsigned long long>(client), *outcome);
  }
  // Appended, not formatted through %s, so a NUL byte in the message
  // survives.
  return StrFormat("E %llu %s ", static_cast<unsigned long long>(client),
                   StatusCodeName(outcome.status().code())) +
         outcome.status().message();
}

Result<Result<double>> ParseAnswerLine(const std::string& line) {
  std::vector<std::string> parts = Split(line, ' ');
  uint64_t client = 0;
  if (parts.size() >= 3 && parts[0] == "A") {
    double value = 0.0;
    if (parts.size() != 3 || !ParseUint64(parts[1], &client) ||
        !ParseDouble(parts[2], &value)) {
      return Status::InvalidArgument("malformed answer line");
    }
    return Result<double>(value);
  }
  if (parts.size() >= 3 && parts[0] == "E") {
    if (!ParseUint64(parts[1], &client)) {
      return Status::InvalidArgument("malformed error line");
    }
    std::string message;
    for (size_t i = 3; i < parts.size(); ++i) {
      if (i > 3) message += ' ';
      message += parts[i];
    }
    return Result<double>(Status(CodeFromName(parts[2]), message));
  }
  return Status::InvalidArgument("response line is neither A nor E");
}

std::string FormatInfoLine(const ServiceInfo& info) {
  return StrFormat("I n=%zu eps=%.17g budget=%.17g batch=%zu", info.n,
                   info.eps_per_query, info.client_budget_eps,
                   info.max_batch);
}

Result<ServiceInfo> ParseInfoLine(const std::string& line) {
  std::vector<std::string> parts = Split(line, ' ');
  if (parts.size() != 5 || parts[0] != "I") {
    return Status::InvalidArgument("malformed info line");
  }
  ServiceInfo info;
  std::string value;
  uint64_t n = 0;
  uint64_t batch = 0;
  if (!FieldValue(parts[1], "n", &value) || !ParseUint64(value, &n) ||
      !FieldValue(parts[2], "eps", &value) ||
      !ParseDouble(value, &info.eps_per_query) ||
      !FieldValue(parts[3], "budget", &value) ||
      !ParseDouble(value, &info.client_budget_eps) ||
      !FieldValue(parts[4], "batch", &value) || !ParseUint64(value, &batch)) {
    return Status::InvalidArgument("malformed info fields");
  }
  info.n = static_cast<size_t>(n);
  info.max_batch = static_cast<size_t>(batch);
  return info;
}

std::string ErrnoMessage(int err) {
  // std::strerror writes into a static buffer, which races when several
  // transport threads report socket errors at once; error_category
  // returns an owned string from a thread-safe lookup.
  return std::generic_category().message(err);
}

}  // namespace pso::service
