// DIMACS CNF parser: accepted dialect, every rejection path, and a
// randomized round-trip property (ToDimacs o ParseDimacsCnf = identity).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "oracles/dimacs.h"
#include "proptest.h"

namespace pso {
namespace {

TEST(DimacsParseTest, ParsesSimpleFormula) {
  Result<DimacsCnf> r = ParseDimacsCnf(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 -1 0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_vars, 3u);
  ASSERT_EQ(r->clauses.size(), 2u);
  EXPECT_EQ(r->clauses[0],
            (std::vector<Lit>{MakeLit(0, true), MakeLit(1, false)}));
  EXPECT_EQ(r->clauses[1], (std::vector<Lit>{MakeLit(1, true),
                                             MakeLit(2, true),
                                             MakeLit(0, false)}));
}

TEST(DimacsParseTest, ClausesMayWrapLinesAndCommentsMayInterleave) {
  Result<DimacsCnf> r = ParseDimacsCnf(
      "p cnf 2 1\n"
      "1\n"
      "c interleaved comment\n"
      "-2 0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->clauses.size(), 1u);
  EXPECT_EQ(r->clauses[0],
            (std::vector<Lit>{MakeLit(0, true), MakeLit(1, false)}));
}

TEST(DimacsParseTest, EmptyFormulaAndEmptyClauseParse) {
  Result<DimacsCnf> empty = ParseDimacsCnf("p cnf 0 0\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_vars, 0u);
  EXPECT_TRUE(empty->clauses.empty());

  Result<DimacsCnf> empty_clause = ParseDimacsCnf("p cnf 1 1\n0\n");
  ASSERT_TRUE(empty_clause.ok());
  ASSERT_EQ(empty_clause->clauses.size(), 1u);
  EXPECT_TRUE(empty_clause->clauses[0].empty());
}

TEST(DimacsParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                          // no header
      "q cnf 1 1\n1 0\n",          // wrong leader
      "p dnf 1 1\n1 0\n",          // wrong format word
      "p cnf x 1\n1 0\n",          // junk variable count
      "p cnf 1 y\n1 0\n",          // junk clause count
      "p cnf -1 0\n",              // negative counts
      "p cnf 1 1\n2 0\n",          // literal out of range
      "p cnf 1 1\n1\n",            // missing 0 terminator
      "p cnf 1 2\n1 0\n",          // fewer clauses than declared
      "p cnf 1 1\n1 0\n-1 0\n",    // more clauses than declared
      "p cnf 1 1\n1 zz 0\n",       // junk literal token
      "p cnf 99999999999999 1\n",  // count overflows the cap
  };
  for (const char* text : bad) {
    Result<DimacsCnf> r = ParseDimacsCnf(text);
    EXPECT_FALSE(r.ok()) << "accepted malformed input: " << text;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(DimacsParseTest, Int64MinLiteralRejectedWithoutNegating) {
  // Regression: the token -9223372036854775808 parses to INT64_MIN, whose
  // negation overflows int64_t (UB). The parser must range-check the
  // literal against the declared variable count before forming |lit|.
  Result<DimacsCnf> r =
      ParseDimacsCnf("p cnf 3 1\n-9223372036854775808 0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // The positive twin and both extreme in-range rejections stay errors.
  for (const char* text : {"p cnf 3 1\n9223372036854775807 0\n",
                           "p cnf 3 1\n-4 0\n", "p cnf 3 1\n4 0\n"}) {
    Result<DimacsCnf> bad = ParseDimacsCnf(text);
    EXPECT_FALSE(bad.ok()) << text;
  }
  // Negative literals at the declared bound still parse.
  Result<DimacsCnf> ok = ParseDimacsCnf("p cnf 3 1\n-3 0\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->clauses[0], (std::vector<Lit>{MakeLit(2, false)}));
}

TEST(DimacsParseTest, ParsedFormulaSolves) {
  Result<DimacsCnf> r = ParseDimacsCnf("p cnf 2 2\n1 2 0\n-1 0\n");
  ASSERT_TRUE(r.ok());
  SatSolver solver = BuildSatSolver(*r);
  Result<SatSolution> got = solver.Solve();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->satisfiable);
  EXPECT_FALSE(got->assignment[0]);
  EXPECT_TRUE(got->assignment[1]);
}

// Round-trip property: rendering and re-parsing any in-cap formula is
// the identity (pinned seeds; see proptest.h).
TEST(DimacsRoundTripTest, ToDimacsThenParseIsIdentity) {
  proptest::Config cfg{/*master_seed=*/0x99dd00ee, /*iterations=*/150,
                       /*max_scale=*/16, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<DimacsCnf>(
      cfg,
      [](Rng& rng, size_t scale) {
        DimacsCnf cnf;
        cnf.num_vars =
            1 + static_cast<uint32_t>(rng.UniformUint64(4 * scale));
        size_t clauses = static_cast<size_t>(rng.UniformUint64(2 * scale));
        for (size_t c = 0; c < clauses; ++c) {
          size_t len = static_cast<size_t>(rng.UniformUint64(5));
          std::vector<Lit> clause;
          for (size_t k = 0; k < len; ++k) {
            clause.push_back(MakeLit(
                static_cast<uint32_t>(rng.UniformUint64(cnf.num_vars)),
                rng.Bernoulli(0.5)));
          }
          cnf.clauses.push_back(std::move(clause));
        }
        return cnf;
      },
      [](const DimacsCnf& cnf) -> std::string {
        Result<DimacsCnf> again = ParseDimacsCnf(ToDimacs(cnf));
        if (!again.ok()) {
          return "round trip failed to parse: " + again.status().ToString();
        }
        if (again->num_vars != cnf.num_vars ||
            again->clauses != cnf.clauses) {
          return "round trip changed the formula";
        }
        return "";
      }));
}

}  // namespace
}  // namespace pso
