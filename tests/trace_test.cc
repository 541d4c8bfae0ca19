// Tests for the hierarchical trace collector (common/trace.h): span
// nesting, parent propagation into ParallelFor workers, Chrome-JSON
// well-formedness, the determinism of the logical event tree across
// thread counts, and the capped LP/SAT per-step instants.

#include "common/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "solver/lp.h"
#include "solver/lp_internal.h"
#include "solver/sat.h"
#include "solver/sat_internal.h"

namespace pso {
namespace {

using trace::Collector;
using trace::Event;

// RAII enable/disable so a failing test cannot leak tracing into others.
struct ScopedTracing {
  explicit ScopedTracing(size_t capacity = Collector::kDefaultCapacity) {
    Collector::Global().Enable(capacity);
  }
  ~ScopedTracing() { Collector::Global().Disable(); }
};

std::map<uint64_t, Event> SpansById(const std::vector<Event>& events) {
  std::map<uint64_t, Event> out;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan) out[e.id] = e;
  }
  return out;
}

size_t CountSpans(const std::vector<Event>& events, const std::string& name) {
  size_t n = 0;
  for (const Event& e : events) {
    n += (e.kind == Event::Kind::kSpan && e.name == name) ? 1 : 0;
  }
  return n;
}

const Event* FindSpan(const std::vector<Event>& events,
                      const std::string& name) {
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan && e.name == name) return &e;
  }
  return nullptr;
}

size_t CountInstants(const std::vector<Event>& events,
                     const std::string& name) {
  size_t n = 0;
  for (const Event& e : events) {
    n += (e.kind == Event::Kind::kInstant && e.name == name) ? 1 : 0;
  }
  return n;
}

TEST(TraceTest, DisabledRecordsNothing) {
  Collector::Global().Enable();  // drops earlier events
  Collector::Global().Disable();
  {
    trace::Span span("should.not.appear");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    trace::Instant("neither.this");
  }
  EXPECT_TRUE(Collector::Global().TakeEvents().empty());
}

TEST(TraceTest, NestedSpansLinkParentToChild) {
  ScopedTracing tracing;
  {
    trace::Span outer("outer");
    ASSERT_TRUE(outer.active());
    {
      trace::Span inner("inner");
      ASSERT_TRUE(inner.active());
      trace::Span leaf("leaf");
    }
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* outer = FindSpan(events, "outer");
  const Event* inner = FindSpan(events, "inner");
  const Event* leaf = FindSpan(events, "leaf");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(leaf->parent, inner->id);
  EXPECT_GE(outer->dur_ns, inner->dur_ns);
}

TEST(TraceTest, InstantsAttachToCurrentSpan) {
  ScopedTracing tracing;
  {
    trace::Span span("holder");
    trace::Instant("tick", {{"k", "v"}});
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* holder = FindSpan(events, "holder");
  ASSERT_NE(holder, nullptr);
  bool saw_instant = false;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "tick") {
      saw_instant = true;
      EXPECT_EQ(e.parent, holder->id);
      ASSERT_EQ(e.args.size(), 1u);
      EXPECT_EQ(e.args[0].first, "k");
      EXPECT_EQ(e.args[0].second, "v");
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(TraceTest, ParallelForChunksNestUnderRegionSpan) {
  ScopedTracing tracing;
  ThreadPool pool(4);
  {
    trace::Span pipeline("pipeline");
    ParallelFor(&pool, 64, [&](size_t begin, size_t end) {
      trace::Span chunk("chunk");
      for (size_t i = begin; i < end; ++i) {
      }
    });
  }
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* pipeline = FindSpan(events, "pipeline");
  const Event* region = FindSpan(events, "parallel.for");
  ASSERT_NE(pipeline, nullptr);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->parent, pipeline->id);
  size_t chunks = 0;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan && e.name == "chunk") {
      ++chunks;
      // Worker-thread chunk spans must nest under the region span even
      // though they ran on different threads.
      EXPECT_EQ(e.parent, region->id);
    }
  }
  EXPECT_GT(chunks, 0u);
}

// Minimal recursive-descent JSON validator — enough to prove the export
// is well-formed without a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceTest, ChromeJsonIsWellFormed) {
  ScopedTracing tracing;
  ThreadPool pool(4);
  {
    trace::Span span("outer \"quoted\" name");
    span.Arg("note", "value with \\ and \"quotes\" and\nnewline");
    trace::Instant("mark", {{"x", "1"}});
    ParallelFor(&pool, 16, [&](size_t, size_t) {});
  }
  std::string json = Collector::Global().ChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// A short trace sits in the stdio buffer, so a full disk reports the lost
// write only at fclose; the caller must still see it.
TEST(TraceTest, WriteChromeJsonFailsWhenCloseFails) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this platform";
  std::fclose(probe);
  ScopedTracing tracing;
  { trace::Span span("lost"); }
  EXPECT_FALSE(Collector::Global().WriteChromeJson("/dev/full"));
}

// The deterministic workload: a pipeline span over a ParallelFor whose
// chunks open their own spans and emit instants. The logical tree does
// not depend on the thread count.
void RunDeterministicWorkload(ThreadPool* pool) {
  trace::Span pipeline("workload");
  ParallelFor(pool, 96, [&](size_t begin, size_t end) {
    trace::Span chunk("chunk");
    for (size_t i = begin; i < end; ++i) {
      trace::Instant("item");
    }
  });
}

// The run-independent shape of a trace: for every event, its
// root-to-event name path and kind, sorted. Ids, tracks and timestamps
// are left out; they depend on scheduling.
std::vector<std::pair<std::string, Event::Kind>> LogicalTree(
    const std::vector<Event>& events) {
  const std::map<uint64_t, Event> spans = SpansById(events);
  std::vector<std::pair<std::string, Event::Kind>> out;
  for (const Event& e : events) {
    std::string path = e.name;
    for (auto it = spans.find(e.parent); it != spans.end();
         it = spans.find(it->second.parent)) {
      path = it->second.name + "/" + path;
    }
    out.emplace_back(std::move(path), e.kind);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TraceTest, TextTreeIsByteIdenticalAcrossThreadCounts) {
  std::vector<std::pair<std::string, Event::Kind>> tree_serial;
  {
    ScopedTracing tracing;
    RunDeterministicWorkload(nullptr);
    tree_serial = LogicalTree(Collector::Global().TakeEvents());
  }
  std::vector<std::pair<std::string, Event::Kind>> tree_parallel;
  {
    ScopedTracing tracing;
    ThreadPool pool(8);
    RunDeterministicWorkload(&pool);
    tree_parallel = LogicalTree(Collector::Global().TakeEvents());
  }
  EXPECT_EQ(tree_serial, tree_parallel);
  const std::pair<std::string, Event::Kind> item{
      "workload/parallel.for/chunk/item", Event::Kind::kInstant};
  EXPECT_EQ(std::count(tree_serial.begin(), tree_serial.end(), item), 96);
}

// A small LP whose solve needs at least one pivot: minimize -x - y
// subject to x + y <= 1, x, y in [0, 1].
Result<LpSolution> SolveSmallLp() {
  LpProblem lp;
  size_t x = lp.AddVariable(0.0, 1.0, -1.0);
  size_t y = lp.AddVariable(0.0, 1.0, -1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 1.0);
  return lp.Solve();
}

TEST(TraceTest, LpPivotTraceRecordedWhenEnabled) {
  ScopedTracing tracing;
  const metrics::Histogram& solves = metrics::GetHistogram("lp.solve");
  const uint64_t solves_before = solves.count();
  auto solved = SolveSmallLp();
  ASSERT_TRUE(solved.ok());
  ASSERT_GT(solved->iterations, 0u);
  // One lp.pivot instant per pivot while under the cap.
  std::vector<Event> events = Collector::Global().TakeEvents();
  EXPECT_EQ(CountInstants(events, "lp.pivot"), solved->iterations);
  // One solve is one span and one histogram interval, never a stack.
  EXPECT_EQ(CountSpans(events, "lp.solve"), 1u);
  EXPECT_EQ(solves.count(), solves_before + 1);
  // The span tree shows the phase pair under lp.solve.
  const Event* solve = FindSpan(events, "lp.solve");
  const Event* phase1 = FindSpan(events, "lp.phase1");
  const Event* phase2 = FindSpan(events, "lp.phase2");
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(phase1, nullptr);
  ASSERT_NE(phase2, nullptr);
  EXPECT_EQ(phase1->parent, solve->id);
  EXPECT_EQ(phase2->parent, solve->id);
}

TEST(TraceTest, SatStepTraceRecordedWhenEnabled) {
  ScopedTracing tracing;
  const metrics::Histogram& solves = metrics::GetHistogram("sat.solve");
  const uint64_t solves_before = solves.count();
  SatSolver solver(3);
  solver.AddClause({MakeLit(0, true), MakeLit(1, true)});
  solver.AddClause({MakeLit(0, false), MakeLit(2, true)});
  solver.AddClause({MakeLit(1, false), MakeLit(2, false)});
  auto solved = solver.Solve();
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->satisfiable);
  ASSERT_GT(solved->decisions, 0u);
  // One sat.decision instant per decision while under the cap.
  std::vector<Event> events = Collector::Global().TakeEvents();
  EXPECT_EQ(CountInstants(events, "sat.decision"), solved->decisions);
  EXPECT_EQ(CountSpans(events, "sat.solve"), 1u);
  EXPECT_EQ(solves.count(), solves_before + 1);
}

// Past kMaxPivotInstants pivots in a phase, the LP stops tracing pivots:
// the cap is the bound on per-step trace volume. An exact-answer L1
// decode at n=128, m=5n takes about 310 pivots, all in the dual phase.
TEST(TraceTest, LpPivotInstantsStopAtCap) {
  ScopedTracing tracing;
  Rng rng(7);
  const size_t n = 128;
  const std::vector<uint8_t> secret = recon::RandomBits(n, rng);
  std::vector<recon::SubsetQuery> queries;
  std::vector<double> answers;
  for (size_t j = 0; j < 5 * n; ++j) {
    recon::SubsetQuery q = recon::RandomBits(n, rng);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += q[i] != 0 ? secret[i] : 0.0;
    queries.push_back(std::move(q));
    answers.push_back(sum);
  }
  const uint64_t pivots_before = metrics::GetCounter("lp.pivots").value();
  auto rec = recon::LpDecodeRecorded(n, queries, answers);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const uint64_t pivots =
      metrics::GetCounter("lp.pivots").value() - pivots_before;
  std::vector<Event> events = Collector::Global().TakeEvents();
  const Event* dual = FindSpan(events, "lp.dual");
  const Event* phase1 = FindSpan(events, "lp.phase1");
  const Event* phase2 = FindSpan(events, "lp.phase2");
  ASSERT_NE(dual, nullptr);
  ASSERT_NE(phase1, nullptr);
  ASSERT_NE(phase2, nullptr);
  std::map<uint64_t, size_t> instants_under;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kInstant && e.name == "lp.pivot") {
      ++instants_under[e.parent];
    }
  }
  ASSERT_EQ(instants_under[phase1->id] + instants_under[phase2->id], 0u)
      << "the dual phase ends optimal, so the primal phases take no pivots";
  ASSERT_GT(pivots, lp_internal::kMaxPivotInstants);
  EXPECT_EQ(CountInstants(events, "lp.pivot"),
            lp_internal::kMaxPivotInstants);
  EXPECT_EQ(instants_under[dual->id], lp_internal::kMaxPivotInstants);
}

// The CDCL search shares one kMaxSatInstants budget between its
// decision, conflict and restart instants. Pigeonhole 6->5 is UNSAT and
// spends far more than that.
TEST(TraceTest, SatInstantsStopAtCap) {
  ScopedTracing tracing;
  const uint32_t pigeons = 6;
  const uint32_t holes = 5;
  SatSolver solver(pigeons * holes);
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (uint32_t h = 0; h < holes; ++h) {
      somewhere.push_back(MakeLit(p * holes + h, true));
    }
    solver.AddClause(somewhere);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.AddBinary(MakeLit(p1 * holes + h, false),
                         MakeLit(p2 * holes + h, false));
      }
    }
  }
  auto solved = solver.Solve();
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->satisfiable);
  ASSERT_GT(solved->decisions + solved->conflicts + solved->restarts,
            sat_internal::kMaxSatInstants);
  std::vector<Event> events = Collector::Global().TakeEvents();
  EXPECT_EQ(CountInstants(events, "sat.decision") +
                CountInstants(events, "sat.conflict") +
                CountInstants(events, "sat.restart"),
            sat_internal::kMaxSatInstants);
}

TEST(TraceTest, DroppedEventsAreCounted) {
  ScopedTracing tracing(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) trace::Instant("burst");
  EXPECT_EQ(Collector::Global().TakeEvents().size(), 4u);
  EXPECT_EQ(Collector::Global().dropped(), 6u);
}

}  // namespace
}  // namespace pso
