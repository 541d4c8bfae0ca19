// Differential tests of CountCsp::Enumerate against the
// scan-every-constraint reference search (tests/oracles/csp_reference.h).
//
// Enumerate tests each child against only the constraints its value
// matches, and the reference rescans every constraint at every node.
// Both must visit the same nodes in the same order, so the solution
// vectors and every CspStats field must be identical. That includes the
// runs where a node or solution cap fires partway through a run of dead
// children.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "census/population.h"
#include "census/reconstruct.h"
#include "census/tabulator.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "csp_brute_force.h"
#include "oracles/csp_reference.h"
#include "proptest.h"
#include "solver/csp.h"

namespace pso {
namespace {

using Solutions = std::vector<std::vector<size_t>>;

struct SearchRun {
  Solutions solutions;
  CspStats stats;
};

SearchRun RunEnumerate(const CountCsp& csp, size_t max_solutions,
                       size_t max_nodes) {
  SearchRun run;
  run.solutions = csp.Enumerate(max_solutions, max_nodes, &run.stats);
  return run;
}

SearchRun RunReference(const CountCsp& csp, size_t max_solutions,
                       size_t max_nodes) {
  SearchRun run;
  run.solutions = oracles::CspEnumerateReference(csp, max_solutions,
                                                 max_nodes, &run.stats);
  return run;
}

// "" when the two runs are identical, else what differs.
std::string Diff(const SearchRun& got, const SearchRun& want) {
  if (got.stats.nodes != want.stats.nodes ||
      got.stats.solutions != want.stats.solutions ||
      got.stats.complete != want.stats.complete) {
    return StrFormat(
        "stats differ: nodes %zu/%zu solutions %zu/%zu complete %d/%d "
        "(enumerate/reference)",
        got.stats.nodes, want.stats.nodes, got.stats.solutions,
        want.stats.solutions, got.stats.complete ? 1 : 0,
        want.stats.complete ? 1 : 0);
  }
  if (got.solutions != want.solutions) {
    return StrFormat("solution vectors differ (%zu solutions)",
                     got.solutions.size());
  }
  return "";
}

// Random instances. Windows with lo == 0, lo > num_vars, hi == 0
// (blocking the values its mask matches) and hi >= num_vars, and masks
// repeated from an earlier constraint, each come up often.
CspCase GenCase(Rng& rng, size_t scale) {
  CspCase c;
  c.num_vars = static_cast<size_t>(rng.UniformUint64(2 + scale / 2));
  constexpr size_t kDomains[] = {1, 2, 3, 5, 8, 13, 63, 65};
  c.domain = kDomains[rng.UniformUint64(scale < 4 ? 5 : 8)];
  const int64_t n = static_cast<int64_t>(c.num_vars);
  const size_t m = static_cast<size_t>(rng.UniformUint64(2 + scale));
  for (size_t k = 0; k < m; ++k) {
    CspCase::Count count;
    if (k > 0 && rng.Bernoulli(0.2)) {
      count.match = c.counts[rng.UniformUint64(k)].match;
    } else {
      const double density = rng.Bernoulli(0.5) ? 0.2 : 0.6;
      count.match = BitVector(c.domain);
      for (size_t v = 0; v < c.domain; ++v) {
        if (rng.Bernoulli(density)) count.match.Set(v);
      }
    }
    const double kind = rng.UniformDouble();
    if (kind < 0.1) {
      count.lo = n + 1 + rng.UniformInt(0, 2);  // unsatisfiable
      count.hi = count.lo + rng.UniformInt(0, 2);
    } else if (kind < 0.25) {
      count.lo = 0;
      count.hi = 0;  // blocks the values its mask matches
    } else if (kind < 0.45) {
      count.lo = 0;
      count.hi = rng.UniformInt(0, n + 1);
    } else {
      count.lo = rng.UniformInt(0, n);
      count.hi = rng.Bernoulli(0.2) ? std::numeric_limits<int64_t>::max()
                                    : rng.UniformInt(count.lo, n + 1);
    }
    c.counts.push_back(std::move(count));
  }
  return c;
}

CountCsp Build(const CspCase& c) {
  CountCsp csp(c.num_vars, c.domain);
  for (const CspCase::Count& count : c.counts) {
    csp.AddCountConstraint(&count.match, count.lo, count.hi);
  }
  return csp;
}

TEST(CspReferenceTest, RandomInstancesMatchReference) {
  proptest::Config cfg{/*master_seed=*/0xc5b0, /*iterations=*/400,
                       /*max_scale=*/8, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<CspCase>(
      cfg, GenCase, [](const CspCase& c) -> std::string {
        const CountCsp csp = Build(c);
        if (!csp.build_status().ok()) {
          return "build error: " + csp.build_status().ToString();
        }
        constexpr size_t kMaxNodes = 200000;
        const SearchRun full = RunReference(csp, kMaxNodes, kMaxNodes);
        std::string diff =
            Diff(RunEnumerate(csp, kMaxNodes, kMaxNodes), full);
        if (!diff.empty()) return "uncapped: " + diff;
        // Every node cap up to the full search (and a few past it) under
        // solution caps of 0, 1, 2 and none: each stops the search at a
        // different node, live or dead.
        const size_t node_caps =
            std::min<size_t>(full.stats.nodes + 2, 300);
        for (size_t max_solutions : {size_t{0}, size_t{1}, size_t{2},
                                     kMaxNodes}) {
          for (size_t max_nodes = 0; max_nodes <= node_caps; ++max_nodes) {
            diff = Diff(RunEnumerate(csp, max_solutions, max_nodes),
                        RunReference(csp, max_solutions, max_nodes));
            if (!diff.empty()) {
              return StrFormat("max_solutions %zu max_nodes %zu: ",
                               max_solutions, max_nodes) +
                     diff;
            }
          }
        }
        return "";
      }));
}

TEST(CspReferenceTest, PoisonedInstanceMatchesReference) {
  CountCsp csp(2, 3);
  const BitVector none(3);
  csp.AddCountConstraint(&none, 2, 1);
  ASSERT_FALSE(csp.build_status().ok());
  EXPECT_EQ(Diff(RunEnumerate(csp, 10, 100), RunReference(csp, 10, 100)),
            "");
}

// One CSP search over a census block's tables.
struct BlockJob {
  census::BlockTables tables;
  size_t max_solutions;
  size_t max_nodes;
};

// Runs `search` on every job, spreading the jobs over `pool`.
template <typename Search>
std::vector<SearchRun> RunJobs(const std::vector<BlockJob>& jobs,
                               ThreadPool* pool, Search search) {
  std::vector<SearchRun> runs(jobs.size());
  ParallelFor(
      pool, jobs.size(),
      [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          const CountCsp csp = census::EncodeBlockCsp(jobs[j].tables);
          runs[j] = search(csp, jobs[j].max_solutions, jobs[j].max_nodes);
        }
      },
      1);
  return runs;
}

// The census benchmark workload's population (200 blocks of 2..9
// persons; exact tables and eps = 2 DP tables drawn from stream 2 of the
// seed) at seeds 1-3, searched under E9's caps: every block of both
// legs, with Enumerate on pools of 0 (serial), 1, 2 and 4 threads.
TEST(CspReferenceTest, CensusWorkloadBlocksMatchReference) {
  std::vector<BlockJob> jobs;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    census::PopulationOptions options;
    options.num_blocks = 200;
    options.min_block_size = 2;
    options.max_block_size = 9;
    Rng rng(seed);
    const census::Population pop = census::GeneratePopulation(options, rng);
    Rng dp_rng = Rng::StreamAt(seed, 2);
    for (const census::Block& b : pop.blocks) {
      jobs.push_back(BlockJob{census::Tabulate(b), 64, 500000});
      jobs.push_back(
          BlockJob{census::TabulateDp(b, /*eps=*/2.0, dp_rng), 16, 150000});
    }
  }
  ASSERT_EQ(jobs.size(), 1200u);

  ThreadPool reference_pool(4);
  const std::vector<SearchRun> want =
      RunJobs(jobs, &reference_pool, RunReference);
  size_t nodes = 0;
  for (const SearchRun& run : want) nodes += run.stats.nodes;
  EXPECT_GT(nodes, 1000000u);  // the DP leg's searches are large

  for (size_t threads : {0, 1, 2, 4}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    const std::vector<SearchRun> got = RunJobs(jobs, pool.get(), RunEnumerate);
    for (size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(Diff(got[j], want[j]), "")
          << "threads " << threads << ", seed " << 1 + j / 400 << ", block "
          << j % 400 / 2 << (j % 2 == 0 ? " exact" : " dp");
    }
  }
}

}  // namespace
}  // namespace pso
