// Tests for the metrics registry: counter/histogram/span semantics,
// concurrent increments under ParallelFor (the TSan `parallel` lane runs
// this suite), shared-registry determinism at 1 vs N threads, the
// log-bucketed histogram (fixed boundaries, quantile brackets), and the
// JSON / Prometheus renderings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "proptest.h"

namespace pso {
namespace {

TEST(MetricsTest, CounterAddAndReset) {
  metrics::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

// PSO_SPAN records one interval into the global histogram of its name
// and, only while tracing is on, one trace span of the same name, nested
// like any other span.
TEST(MetricsTest, PsoSpanRecordsHistogramAndTraceSpan) {
  using trace::Collector;
  using trace::Event;
  metrics::Histogram& outer = metrics::GetHistogram("test.span.outer");
  metrics::Histogram& inner = metrics::GetHistogram("test.span.inner");
  const uint64_t outer0 = outer.count();
  const uint64_t inner0 = inner.count();
  Collector::Global().Enable();  // drops earlier events
  Collector::Global().Disable();
  {
    PSO_NAMED_SPAN(span, "test.span.outer");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(outer.count(), outer0 + 1);
  EXPECT_TRUE(Collector::Global().TakeEvents().empty());

  Collector::Global().Enable();
  uint64_t root_id = 0;
  {
    trace::Span root("test.root");
    root_id = root.id();
    PSO_NAMED_SPAN(span, "test.span.outer");
    EXPECT_TRUE(span.active());
    PSO_SPAN("test.span.inner");
  }
  Collector::Global().Disable();
  EXPECT_EQ(outer.count(), outer0 + 2);
  EXPECT_EQ(inner.count(), inner0 + 1);
  std::map<std::string, std::vector<Event>> spans;
  for (const Event& e : Collector::Global().TakeEvents()) {
    if (e.kind == Event::Kind::kSpan) spans[e.name].push_back(e);
  }
  ASSERT_EQ(spans["test.span.outer"].size(), 1u);
  ASSERT_EQ(spans["test.span.inner"].size(), 1u);
  EXPECT_EQ(spans["test.span.outer"][0].parent, root_id);
  EXPECT_EQ(spans["test.span.inner"][0].parent,
            spans["test.span.outer"][0].id);
  // A span marks its histogram as durations even when a plain lookup
  // created it first.
  EXPECT_TRUE(metrics::Registry::Global()
                  .TakeSnapshot()
                  .histograms.at("test.span.outer")
                  .durations);
}

TEST(MetricsTest, RegistryHandlesAreStableAndNamed) {
  metrics::Registry reg;
  metrics::Counter& a = reg.GetCounter("a");
  metrics::Counter& b = reg.GetCounter("b");
  b.Add(7);
  // Same name => same handle, even after more insertions.
  EXPECT_EQ(&a, &reg.GetCounter("a"));
  a.Add(3);
  metrics::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("a"), 3u);
  EXPECT_EQ(snap.counters.at("b"), 7u);
}

TEST(MetricsTest, GaugesOverwrite) {
  metrics::Registry reg;
  reg.SetGauge("g", 1.0);
  reg.SetGauge("g", 2.5);
  EXPECT_EQ(reg.TakeSnapshot().gauges.at("g"), 2.5);
}

TEST(MetricsTest, ResetAllZeroesButKeepsHandles) {
  metrics::Registry reg;
  metrics::Counter& c = reg.GetCounter("c");
  c.Add(5);
  metrics::Histogram& h = reg.GetSpanHistogram("h");
  h.Record(1.0);
  reg.SetGauge("g", 9.0);
  reg.ResetAll();
  metrics::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  EXPECT_EQ(snap.histograms.at("h").sum_fp, 0u);
  EXPECT_TRUE(snap.histograms.at("h").durations);
  EXPECT_TRUE(snap.gauges.empty());
  c.Add(1);  // handles still valid
  h.Record(2.0);
  snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("c"), 1u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
}

// Concurrent increments: every ParallelFor worker hammers the same
// counters through the registry. Run under PSO_SANITIZE=thread to prove
// the registry race-free; the totals check exactness (no lost updates).
TEST(MetricsTest, ConcurrentIncrementsUnderParallelForAreExact) {
  metrics::Registry reg;
  metrics::Counter& items = reg.GetCounter("items");
  metrics::Histogram& spans = reg.GetSpanHistogram("spans");
  const size_t n = 100000;
  ThreadPool pool(4);
  ParallelFor(&pool, n, [&](size_t begin, size_t end) {
    metrics::Span span(spans, "spans");
    // Mix per-item increments with one bulk Add per chunk.
    for (size_t i = begin; i < end; ++i) reg.GetCounter("per_item").Add(1);
    items.Add(end - begin);
  });
  metrics::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("items"), n);
  EXPECT_EQ(snap.counters.at("per_item"), n);
  EXPECT_EQ(snap.histograms.at("spans").count, NumChunks(n));
}

// Shared-registry determinism: ParallelFor workers record into one
// registry, and the rendered snapshot (counter totals, histogram buckets,
// fixed-point sum, min/max) is identical at 1 and 4 threads.
TEST(MetricsTest, MergeDeterminismOneVsManyThreads) {
  const size_t n = 20000;
  auto run_at = [&](size_t threads) {
    ThreadPool pool(threads);
    metrics::Registry reg;
    metrics::Counter& events = reg.GetCounter("events");
    metrics::Histogram& chunk = reg.GetSpanHistogram("chunk");
    ParallelFor(&pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) events.Add(i % 7 == 0 ? 3 : 1);
      chunk.Record(0.001);
    });
    return metrics::SnapshotToJson(reg.TakeSnapshot());
  };
  const std::string at1 = run_at(1);
  EXPECT_NE(at1.find("\"events\""), std::string::npos);
  EXPECT_EQ(at1, run_at(4));
}

TEST(MetricsTest, JsonEscaping) {
  EXPECT_EQ(metrics::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(metrics::JsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(MetricsTest, SnapshotToJsonShape) {
  metrics::Registry reg;
  reg.GetCounter("lp.pivots").Add(12);
  reg.GetSpanHistogram("lp.solve").Record(0.5);
  reg.SetGauge("pool.imbalance", 2.0);
  std::string json = metrics::SnapshotToJson(reg.TakeSnapshot());
  EXPECT_NE(json.find("\"counters\": {\"lp.pivots\": 12}, \"gauges\": {"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"histograms\": {\"lp.solve\": {\"count\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pool.imbalance\""), std::string::npos);
  EXPECT_EQ(json.find("timers"), std::string::npos);
}

TEST(MetricsTest, SnapshotToTextListsEverySection) {
  metrics::Registry reg;
  reg.GetCounter("c").Add(1);
  reg.GetSpanHistogram("t").Record(0.1);
  reg.SetGauge("g", 4.0);
  std::string text = metrics::SnapshotToText(reg.TakeSnapshot());
  EXPECT_NE(text.find("counters:"), std::string::npos);
  EXPECT_NE(text.find("gauges:"), std::string::npos);
  EXPECT_NE(text.find("histograms:"), std::string::npos);
  EXPECT_NE(text.find("n=1 mean=0.1s"), std::string::npos) << text;
}

TEST(HistogramTest, RecordAndAccessors) {
  metrics::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.Record(0.25);
  h.Record(0.5);
  h.Record(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_fp(), 2'750'000'000u);  // nano-units
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 2.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_fp(), 0u);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreFixedAndConsistent) {
  using H = metrics::Histogram;
  // Exact powers of two start their octave: the value IS the bucket's
  // lower bound.
  for (int e : {-12, -3, 0, 5, 20}) {
    const double v = std::ldexp(1.0, e);
    const int idx = H::BucketIndex(v);
    EXPECT_EQ(H::BucketLowerBound(idx), v) << "e=" << e;
  }
  // Every sampled value lands in a bucket that brackets it.
  for (double v : {1e-9, 3.7e-6, 0.001, 0.42, 1.0, 1.5, 777.25, 9.9e8}) {
    const int idx = H::BucketIndex(v);
    ASSERT_GT(idx, 0) << v;
    ASSERT_LT(idx, H::kNumBuckets - 1) << v;
    EXPECT_LE(H::BucketLowerBound(idx), v) << v;
    EXPECT_LT(v, H::BucketUpperBound(idx)) << v;
  }
  // Boundaries tile: bucket i's upper bound is bucket i+1's lower bound.
  for (int i = 1; i < H::kNumBuckets - 2; ++i) {
    EXPECT_EQ(H::BucketUpperBound(i), H::BucketLowerBound(i + 1)) << i;
  }
}

TEST(HistogramTest, UnderOverflowAndNonFiniteLandInEdgeBuckets) {
  using H = metrics::Histogram;
  EXPECT_EQ(H::BucketIndex(0.0), 0);
  EXPECT_EQ(H::BucketIndex(-1.0), 0);
  EXPECT_EQ(H::BucketIndex(std::nan("")), 0);
  EXPECT_EQ(H::BucketIndex(std::ldexp(1.0, H::kMinExponent - 1)), 0);
  EXPECT_EQ(H::BucketIndex(std::ldexp(1.0, H::kMaxExponent)),
            H::kNumBuckets - 1);
  EXPECT_EQ(H::BucketIndex(std::numeric_limits<double>::infinity()),
            H::kNumBuckets - 1);

  metrics::Histogram h;
  h.Record(-3.0);
  h.Record(0.0);
  h.Record(std::nan(""));
  h.Record(1.0);
  EXPECT_EQ(h.count(), 4u);           // every Record counts
  EXPECT_EQ(h.sum_fp(), 1'000'000'000u);  // only positive finite values sum
  EXPECT_EQ(h.min(), -3.0);           // NaN skipped, negatives tracked
  EXPECT_EQ(h.max(), 1.0);
}

// Concurrent recording into one shared histogram: run under
// PSO_SANITIZE=thread (the `parallel` ctest lane) to prove the CAS
// min/max and atomic tallies race-free; the totals check exactness.
TEST(HistogramTest, ConcurrentRecordingIsExact) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.GetHistogram("lat");
  const size_t n = 100000;
  ThreadPool pool(4);
  ParallelFor(&pool, n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      h.Record(1e-6 * static_cast<double>(i % 1024 + 1));
    }
  });
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.min(), 1e-6);
  EXPECT_EQ(h.max(), 1024e-6);
  uint64_t tally = 0;
  const metrics::Snapshot snap = reg.TakeSnapshot();
  for (const auto& [idx, c] : snap.histograms.at("lat").buckets) tally += c;
  EXPECT_EQ(tally, n);
}

// Histogram determinism at 1 vs N threads, recording into one shared
// registry, gated on the full JSON rendering (bucket tallies, sum_fp,
// min, max, quantiles).
TEST(HistogramTest, OneVsManyThreadsBitIdentical) {
  const size_t n = 20000;
  auto run_at = [&](size_t threads) {
    ThreadPool pool(threads);
    metrics::Registry reg;
    metrics::Histogram& h = reg.GetHistogram("work");
    ParallelFor(&pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        h.Record(0.5 + static_cast<double>(i % 331) / 256.0);
      }
    });
    return metrics::SnapshotToJson(reg.TakeSnapshot());
  };
  EXPECT_EQ(run_at(1), run_at(4));
}

// Quantile property: the estimate never under-reports (it is an upper
// bound of the true empirical quantile) and overshoots by at most one
// sub-bucket's relative width (12.5%), the histogram's resolution bound.
TEST(HistogramTest, QuantileEstimateBracketsTrueQuantile) {
  proptest::Config cfg{.master_seed = 0x4157, .iterations = 60,
                       .max_scale = 2048};
  EXPECT_TRUE(proptest::ForAll<std::vector<double>>(
      cfg,
      [](Rng& rng, size_t scale) {
        std::vector<double> values;
        const size_t n = 2 + static_cast<size_t>(rng.UniformInt(
                                 1, static_cast<int64_t>(scale) + 1));
        values.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          // Positive, spanning ~9 octaves — well inside the bucketed
          // range so edge buckets don't blunt the resolution bound.
          values.push_back(std::ldexp(1.0 + rng.UniformDouble(),
                                      static_cast<int>(rng.UniformInt(-5, 4))));
        }
        return values;
      },
      [](const std::vector<double>& values) -> std::string {
        metrics::Registry reg;
        metrics::Histogram& h = reg.GetHistogram("q");
        for (double v : values) h.Record(v);
        const metrics::Snapshot::HistogramValue hv =
            reg.TakeSnapshot().histograms.at("q");
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
          const size_t rank = std::max<size_t>(
              1, static_cast<size_t>(
                     std::ceil(q * static_cast<double>(sorted.size()))));
          const double truth = sorted[rank - 1];
          const double est = hv.ValueAtQuantile(q);
          const double bound =
              1.0 + 1.0 / metrics::Histogram::kSubBuckets + 1e-12;
          if (est < truth || est > truth * bound) {
            return StrFormat(
                "q=%.3f: estimate %.9g outside [truth, truth*%.4f] "
                "(truth %.9g, n=%zu)",
                q, est, bound, truth, sorted.size());
          }
        }
        return "";
      }));
}

// Satellite regression: hostile metric names (quotes, backslashes,
// control characters) and non-finite values must not corrupt the JSON
// document.
TEST(MetricsTest, SnapshotToJsonEscapesHostileNamesAndNonFinite) {
  metrics::Registry reg;
  const std::string hostile = "bad\"name\\with\nnewline";
  reg.GetCounter(hostile).Add(1);
  reg.SetGauge("inf_gauge", std::numeric_limits<double>::infinity());
  reg.SetGauge("nan_gauge", std::nan(""));
  reg.GetHistogram("h").Record(0.5);
  const std::string json = metrics::SnapshotToJson(reg.TakeSnapshot());
  EXPECT_NE(json.find("\"bad\\\"name\\\\with\\nnewline\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"inf_gauge\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nan_gauge\": null"), std::string::npos) << json;
  // No raw quote/backslash/newline from the name survives unescaped,
  // and no inf/nan literal leaks into the document.
  EXPECT_EQ(json.find("bad\"name"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find("inf"), json.find("inf_gauge"));
  EXPECT_EQ(json.find("nan"), json.find("nan_gauge"));
}

TEST(MetricsTest, SnapshotToTextIncludesHistograms) {
  metrics::Registry reg;
  reg.GetHistogram("lat").Record(0.25);
  const std::string text = metrics::SnapshotToText(reg.TakeSnapshot());
  EXPECT_NE(text.find("histograms:"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

// Promtool-style validation: every non-comment line must be
// `name{labels} value`, counters end in _total, histogram bucket series
// are cumulative and end with le="+Inf" == _count.
TEST(MetricsTest, ExpositionToPromParses) {
  metrics::Registry reg;
  reg.GetCounter("sat.conflicts").Add(42);
  reg.SetGauge("pool.workers", 4.0);
  reg.GetHistogram("service.batch_size").Record(8.0);
  metrics::Histogram& h = reg.GetSpanHistogram("lp.solve");
  h.Record(0.001);
  h.Record(0.002);
  h.Record(0.25);
  const std::string prom =
      metrics::ExpositionToProm(reg.TakeSnapshot());

  const std::regex help_re(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  const std::regex type_re(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram)$)");
  const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (NaN|[+-]?Inf|[0-9.eE+-]+)$)");

  size_t lines = 0;
  uint64_t last_cum = 0;
  uint64_t inf_bucket = 0;
  std::set<std::string> typed_names;
  std::istringstream in(prom);
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, help_re)) << line;
    } else if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
      // A metric may be declared once (scrapers reject conflicting
      // TYPEs).
      const std::string declared =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed_names.insert(declared).second)
          << "duplicate TYPE for " << declared;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    }
    if (line.rfind("lp_solve_seconds_bucket{le=", 0) == 0) {
      const uint64_t cum =
          std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(cum, last_cum) << "buckets must be cumulative: " << line;
      last_cum = cum;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_bucket = cum;
    }
  }
  EXPECT_GT(lines, 0u);
  EXPECT_NE(prom.find("sat_conflicts_total 42"), std::string::npos) << prom;
  EXPECT_NE(prom.find("pool_workers 4"), std::string::npos) << prom;
  EXPECT_NE(prom.find("lp_solve_seconds_count 3"), std::string::npos) << prom;
  EXPECT_EQ(inf_bucket, 3u) << "le=\"+Inf\" must equal _count";
  EXPECT_NE(prom.find("service_batch_size_count 1"), std::string::npos)
      << prom;
}

// Only span histograms hold seconds. A value histogram (queries per
// batch) renders without the latency unit in the text and Prometheus
// forms; the JSON rendering is the same for both kinds.
TEST(MetricsTest, ValueHistogramsAreNotLabelledAsLatencies) {
  metrics::Registry reg;
  reg.GetHistogram("service.batch_size").Record(8.0);
  reg.GetSpanHistogram("service.answer").Record(0.5);
  const metrics::Snapshot snap = reg.TakeSnapshot();
  EXPECT_FALSE(snap.histograms.at("service.batch_size").durations);

  const std::string prom = metrics::ExpositionToProm(snap);
  EXPECT_EQ(prom.find("service_batch_size_seconds"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# HELP service_batch_size Value distribution"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("service_batch_size_count 1"), std::string::npos);
  EXPECT_NE(prom.find("# HELP service_answer_seconds Latency distribution"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("service_answer_seconds_count 1"), std::string::npos);

  const std::string text = metrics::SnapshotToText(snap);
  EXPECT_NE(text.find("n=1 mean=8 p50=8 p90=8 p95=8 p99=8 p999=8 max=8\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("n=1 mean=0.5s p50=0.5s"), std::string::npos) << text;

  metrics::Registry plain;
  plain.GetHistogram("service.answer").Record(0.5);
  metrics::Registry span;
  span.GetSpanHistogram("service.answer").Record(0.5);
  EXPECT_EQ(metrics::SnapshotToJson(plain.TakeSnapshot()),
            metrics::SnapshotToJson(span.TakeSnapshot()));
}

TEST(MetricsTest, PoolGaugesPublishWorkerDistribution) {
  {
    ThreadPool pool(2);
    ParallelFor(&pool, 10000, [](size_t, size_t) {});
    RecordPoolGauges(&pool);
  }
  metrics::Snapshot snap = metrics::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(snap.gauges.count("pool.workers"));
  EXPECT_EQ(snap.gauges.at("pool.workers"), 2.0);
  EXPECT_GE(snap.gauges.at("pool.tasks_max"),
            snap.gauges.at("pool.tasks_min"));
}

}  // namespace
}  // namespace pso
