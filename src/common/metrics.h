// Process-wide observability: named counters, fixed-bucket value
// histograms, gauges, and timed spans (PSO_SPAN), collected in a registry
// that benches and psoctl snapshot into BENCH_*.json / --metrics dumps.
//
// Determinism contract (matters because BENCH_*.json files are diffed
// across runs to detect perf and behavior regressions):
//
//  - Counters hold event totals (simplex pivots, SAT decisions, trials).
//    They are atomic and only ever summed, so concurrent increments from
//    ParallelFor workers commute: same seed + same thread count => the
//    same counter values on every run, at any interleaving.
//  - Gauges hold point-in-time observations (worker-queue imbalance).
//    These are inherently run-dependent and are reported in their own
//    JSON section so tooling can diff the deterministic "counters" object
//    exactly.
//  - Histograms hold per-event value distributions over FIXED log-scale
//    bucket boundaries (see Histogram). Every internal accumulator is an
//    integer (bucket tallies, fixed-point sum) or an order-free extremum
//    (min/max), so concurrent recording into the one shared registry
//    commutes: N threads recording the same values reproduce the
//    single-thread histogram bit for bit. When the recorded
//    values themselves are deterministic (work counts, batch sizes), the
//    whole snapshot is; when they are span durations, only the event
//    *count* is — tools/bench_diff.py gates exactly that split.
//
// Hot-path usage: look the handle up once and keep the reference —
// Registry::GetCounter takes a lock for the name lookup, but the returned
// Counter/Histogram lives for the registry's lifetime and its operations
// are lock-free atomics. PSO_SPAN caches its handle per call site.

#ifndef PSO_COMMON_METRICS_H_
#define PSO_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace pso::metrics {

/// Monotonically increasing event count. Thread-safe; increments commute.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Log-bucketed value distribution with FIXED bucket boundaries. The
/// bucket tallies, count, sum, min, and max depend only on the multiset
/// of recorded values, never on thread count or interleaving.
///
/// Bucket scheme (HdrHistogram-style base-2 sub-bucketed log scale):
/// each power-of-two octave [2^e, 2^(e+1)) is split into kSubBuckets
/// equal-width sub-buckets, giving a worst-case relative quantile error
/// of 1/kSubBuckets = 12.5% across ~19 decades (2^-32 .. 2^31 — for
/// latencies in seconds that spans fractions of a nanosecond to decades).
/// Values below the first octave (including zero and negatives) land in
/// bucket 0; values at or above the last octave land in the final
/// overflow bucket. Boundaries are compile-time constants: no
/// configuration to disagree on.
///
/// Every accumulator commutes: bucket tallies and count are atomic
/// integer adds, sum is an atomic fixed-point integer (nano-units; adds
/// commute where floating-point addition would not), min/max are CAS
/// loops. See the determinism contract at the top of this header.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;  // 8 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExponent = -32;  // first octave [2^-32, 2^-31)
  static constexpr int kMaxExponent = 31;   // last octave [2^30, 2^31)
  // Bucket 0 = underflow (v < 2^kMinExponent, incl. zero/negative);
  // buckets 1 .. kNumBuckets-2 = the sub-bucketed octaves;
  // bucket kNumBuckets-1 = overflow (v >= 2^kMaxExponent).
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;
  // Fixed-point scale for the exact sum: 1e9 units per 1.0 (nano-units).
  static constexpr double kSumScale = 1e9;

  /// Maps a value to its bucket index in [0, kNumBuckets). Pure: the
  /// mapping is a compile-time-fixed function of the double's bits.
  static int BucketIndex(double v);
  /// Inclusive lower bound of bucket `i` (-inf conceptually for bucket 0,
  /// reported as 0.0; +2^kMaxExponent for the overflow bucket).
  static double BucketLowerBound(int i);
  /// Exclusive upper bound of bucket `i` (+inf for the overflow bucket).
  static double BucketUpperBound(int i);

  /// Records one observation. Thread-safe; concurrent records commute.
  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Exact fixed-point sum in nano-units (kSumScale per 1.0).
  uint64_t sum_fp() const { return sum_fp_.load(std::memory_order_relaxed); }
  double sum() const { return static_cast<double>(sum_fp()) / kSumScale; }
  /// Smallest/largest recorded value; 0.0 when count() == 0.
  double min() const;
  double max() const;
  uint64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_fp_{0};
  // Raw double bits, updated by CAS loops (commutative folds). Seeded
  // with +inf/-inf so the first Record wins unconditionally; reported as
  // 0.0 while count_ == 0.
  std::atomic<uint64_t> min_bits_{0x7FF0000000000000ull};  // +inf
  std::atomic<uint64_t> max_bits_{0xFFF0000000000000ull};  // -inf
};

/// Everything the registry knows at one instant. The maps are ordered so
/// rendering is stable.
struct Snapshot {
  /// A histogram's state at one instant. `buckets` is sparse: only
  /// non-zero tallies, keyed by bucket index. `sum_fp` is the exact
  /// fixed-point sum (Histogram::kSumScale units).
  struct HistogramValue {
    uint64_t count = 0;
    uint64_t sum_fp = 0;
    double min = 0.0;
    double max = 0.0;
    std::map<int, uint64_t> buckets;
    /// Span durations in seconds (PSO_SPAN) rather than plain values;
    /// the text and Prometheus renderings label only these as latencies.
    bool durations = false;

    double sum() const {
      return static_cast<double>(sum_fp) / Histogram::kSumScale;
    }
    double mean() const { return count == 0 ? 0.0 : sum() / count; }
    /// Index of the bucket containing the q-quantile (0 <= q <= 1) under
    /// the empirical distribution, or -1 when empty.
    int BucketAtQuantile(double q) const;
    /// Quantile estimate: the upper bound of the bucket containing the
    /// q-quantile (so the estimate never under-reports a tail), clamped
    /// to [min, max]. 0.0 when empty.
    double ValueAtQuantile(double q) const;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramValue> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metric store. A process-wide instance (Global()) backs the
/// solvers and runners; tests may build private instances.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumented module records into.
  static Registry& Global();

  /// Returns the counter/histogram registered under `name`, creating it
  /// on first use. The reference stays valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name) PSO_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) PSO_EXCLUDES(mu_);
  /// The histogram a span named `name` records into: GetHistogram(name),
  /// marked as holding durations in seconds.
  Histogram& GetSpanHistogram(const std::string& name) PSO_EXCLUDES(mu_);

  /// Sets (overwrites) a point-in-time observation.
  void SetGauge(const std::string& name, double value) PSO_EXCLUDES(mu_);

  /// Copies every metric's current value. Safe to call concurrently with
  /// updates; each value is read atomically (the snapshot as a whole is
  /// not a consistent cut, which is fine for monotone counters).
  Snapshot TakeSnapshot() const PSO_EXCLUDES(mu_);

  /// Zeroes every counter and histogram and drops all gauges. Handles remain
  /// valid. Intended for tests and for psoctl between subcommands.
  void ResetAll() PSO_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  struct HistogramSlot {
    std::unique_ptr<Histogram> hist;
    bool durations = false;  // set once any span records into it
  };
  Histogram& FindHistogram(const std::string& name, bool durations)
      PSO_EXCLUDES(mu_);

  // unique_ptr gives handles stable addresses across map rehash/insert.
  // The maps are guarded; the Counter/Histogram objects they point to are
  // internally atomic and deliberately updated lock-free.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PSO_GUARDED_BY(mu_);
  std::map<std::string, HistogramSlot> histograms_ PSO_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ PSO_GUARDED_BY(mu_);
};

/// Shorthands for the global registry.
inline Counter& GetCounter(const std::string& name) {
  return Registry::Global().GetCounter(name);
}
inline Histogram& GetHistogram(const std::string& name) {
  return Registry::Global().GetHistogram(name);
}
inline void SetGauge(const std::string& name, double value) {
  Registry::Global().SetGauge(name, value);
}

/// A timed scope: records the wall-clock interval between construction
/// and destruction into a duration histogram and, while tracing is on,
/// as the trace span `name`. Declare one with PSO_SPAN, which caches the
/// histogram handle per call site; construct it directly only with a
/// handle from GetSpanHistogram. Non-copyable; stack-allocate one per
/// measured scope.
class Span {
 public:
  Span(Histogram& hist, const char* name)
      : hist_(hist), trace_(name), start_(std::chrono::steady_clock::now()) {}
  ~Span() {
    hist_.Record(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Annotates the trace span; no-op when tracing was off at open.
  void Arg(const char* key, std::string value) {
    trace_.Arg(key, std::move(value));
  }
  bool active() const { return trace_.active(); }

 private:
  Histogram& hist_;
  trace::Span trace_;
  std::chrono::steady_clock::time_point start_;
};

/// JSON-escapes `s` (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// Renders `snap` as a JSON object with "counters", "gauges", and
/// "histograms" members (each an object keyed by metric name, keys
/// sorted). Names and string values are JSON-escaped; non-finite numbers
/// render as null (both would otherwise produce invalid JSON).
std::string SnapshotToJson(const Snapshot& snap);

/// Renders `snap` as an aligned human-readable listing (psoctl --metrics).
std::string SnapshotToText(const Snapshot& snap);

/// Renders `snap` in the Prometheus text exposition format (version
/// 0.0.4): counters as `<name>_total`, gauges as gauges, histograms as
/// cumulative `_bucket{le="..."}` series ending in `le="+Inf"` plus
/// `_sum`/`_count` (span histograms as `<name>_seconds`). Metric names
/// are sanitized to [a-zA-Z0-9_:] as the format requires.
std::string ExpositionToProm(const Snapshot& snap);

}  // namespace pso::metrics

// PSO_SPAN("lp.solve"): times the rest of the enclosing scope into the
// global histogram of that name, and traces it while tracing is on. The
// name must be a string literal. PSO_NAMED_SPAN(var, "name") is the same
// span as a local `var`, for Arg()/active().
#define PSO_NAMED_SPAN(var, name)                                       \
  ::pso::metrics::Span var(                                             \
      []() -> ::pso::metrics::Histogram& {                              \
        static ::pso::metrics::Histogram& hist =                        \
            ::pso::metrics::Registry::Global().GetSpanHistogram("" name); \
        return hist;                                                    \
      }(),                                                              \
      "" name)
#define PSO_SPAN(name) \
  PSO_NAMED_SPAN(PSO_TRACE_CONCAT(pso_span_, __LINE__), name)

#endif  // PSO_COMMON_METRICS_H_
