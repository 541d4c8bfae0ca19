#include "oracles/dimacs.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/str_util.h"

namespace pso {

namespace {

// Token scanner over whitespace-separated fields, tracking the line
// number for diagnostics. DIMACS is line-oriented only for comments;
// clause literals may wrap, so tokenizing the whole body is correct.
class TokenScanner {
 public:
  explicit TokenScanner(const std::string& text) : text_(text) {}

  /// Advances to the next token; false at end of input. Skips comment
  /// lines ('c' ... end of line) when `skip_comments`.
  bool Next(std::string* token) {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == 'c' && at_line_start_) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size()) return false;
    at_line_start_ = false;
    size_t start = pos_;
    while (pos_ < text_.size() &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    *token = text_.substr(start, pos_ - start);
    return true;
  }

  size_t line() const { return line_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  bool at_line_start_ = true;
};

// Parses a whole-token decimal integer into `out`; false on any junk,
// overflow included (strtoll saturates, which the range checks catch).
bool ParseInt64(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

Result<DimacsCnf> ParseDimacsCnf(const std::string& text) {
  TokenScanner scan(text);
  std::string token;

  // Header: "p cnf <vars> <clauses>".
  if (!scan.Next(&token)) {
    return Status::InvalidArgument("missing 'p cnf' header");
  }
  if (token != "p") {
    return Status::InvalidArgument(StrFormat(
        "line %zu: expected 'p cnf' header, got '%s'", scan.line(),
        token.c_str()));
  }
  if (!scan.Next(&token) || token != "cnf") {
    return Status::InvalidArgument(
        StrFormat("line %zu: header format is not 'cnf'", scan.line()));
  }
  int64_t declared_vars = 0;
  int64_t declared_clauses = 0;
  if (!scan.Next(&token) || !ParseInt64(token, &declared_vars) ||
      declared_vars < 0) {
    return Status::InvalidArgument(
        StrFormat("line %zu: malformed variable count", scan.line()));
  }
  if (!scan.Next(&token) || !ParseInt64(token, &declared_clauses) ||
      declared_clauses < 0) {
    return Status::InvalidArgument(
        StrFormat("line %zu: malformed clause count", scan.line()));
  }
  if (declared_vars > static_cast<int64_t>(kDimacsMaxVars)) {
    return Status::InvalidArgument(
        StrFormat("declared %lld variables exceeds the cap of %u",
                  (long long)declared_vars, kDimacsMaxVars));
  }
  if (declared_clauses > static_cast<int64_t>(kDimacsMaxClauses)) {
    return Status::InvalidArgument(
        StrFormat("declared %lld clauses exceeds the cap of %zu",
                  (long long)declared_clauses, kDimacsMaxClauses));
  }

  DimacsCnf cnf;
  cnf.num_vars = static_cast<uint32_t>(declared_vars);
  cnf.clauses.reserve(static_cast<size_t>(declared_clauses));

  std::vector<Lit> clause;
  while (scan.Next(&token)) {
    int64_t lit = 0;
    if (!ParseInt64(token, &lit)) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: '%s' is not a literal", scan.line(), token.c_str()));
    }
    if (lit == 0) {
      if (cnf.clauses.size() ==
          static_cast<size_t>(declared_clauses)) {
        return Status::InvalidArgument(StrFormat(
            "line %zu: more clauses than the %lld declared", scan.line(),
            (long long)declared_clauses));
      }
      cnf.clauses.push_back(std::move(clause));
      clause.clear();
      continue;
    }
    // Range-check before negating: the token -9223372036854775808 parses
    // to INT64_MIN, whose negation overflows (UB). Any magnitude beyond
    // the declared variable count is equally malformed, so reject on the
    // raw value and only then form the absolute value.
    if (lit < -declared_vars || lit > declared_vars) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: literal %lld outside the %lld declared variables",
          scan.line(), (long long)lit, (long long)declared_vars));
    }
    int64_t var = lit < 0 ? -lit : lit;
    clause.push_back(
        MakeLit(static_cast<uint32_t>(var - 1), /*positive=*/lit > 0));
  }
  if (!clause.empty()) {
    return Status::InvalidArgument("last clause is not '0'-terminated");
  }
  if (cnf.clauses.size() != static_cast<size_t>(declared_clauses)) {
    return Status::InvalidArgument(
        StrFormat("found %zu clauses, header declared %lld",
                  cnf.clauses.size(), (long long)declared_clauses));
  }
  return cnf;
}

std::string ToDimacs(const DimacsCnf& cnf) {
  std::string out = StrFormat("p cnf %u %zu\n", cnf.num_vars,
                              cnf.clauses.size());
  for (const std::vector<Lit>& clause : cnf.clauses) {
    for (Lit l : clause) {
      int64_t v = static_cast<int64_t>(LitVar(l)) + 1;
      out += StrFormat("%lld ", (long long)(LitPositive(l) ? v : -v));
    }
    out += "0\n";
  }
  return out;
}

SatSolver BuildSatSolver(const DimacsCnf& cnf) {
  SatSolver solver(cnf.num_vars);
  for (const std::vector<Lit>& clause : cnf.clauses) {
    solver.AddClause(clause);
  }
  return solver;
}

}  // namespace pso
