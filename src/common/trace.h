// Hierarchical tracing, layered on top of (not replacing) the metrics
// registry: where metrics.h answers "how much, in total", this module
// answers "where inside one run, and in what order".
//
// The model is a tree of spans. Each thread keeps a stack of open spans;
// a new span's parent is the top of that stack. ParallelFor propagates
// the calling thread's current span to its workers (trace::ContextScope),
// so chunk work running on a pool thread still nests under the pipeline
// span that launched it — the logical tree is the same at any thread
// count. Instant events attach to the current span the same way.
//
// One export: Chrome trace-event JSON (ChromeJson / WriteChromeJson),
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Events
// carry wall timestamps and per-thread track ids; every span's args
// include its "id"/"parent" so cross-thread nesting stays auditable even
// though the timeline renders per track.
//
// Cost contract: collection is off by default and every entry point
// checks one relaxed atomic first, so instrumented code paths pay a
// single predictable branch when tracing is disabled. When enabled,
// events are appended under a mutex into a bounded buffer (drops are
// counted, never blocking) — tracing is a debugging/audit mode, not a
// hot-path facility.

#ifndef PSO_COMMON_TRACE_H_
#define PSO_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pso::trace {

/// One recorded trace event. Span events are recorded at close (complete
/// spans); instants are points.
struct Event {
  enum class Kind : uint8_t { kSpan, kInstant };

  Kind kind = Kind::kInstant;
  std::string name;
  uint64_t id = 0;        ///< Span id (nonzero for kSpan only).
  uint64_t parent = 0;    ///< Enclosing span id; 0 = root.
  uint32_t track = 0;     ///< Per-thread track id (Chrome "tid").
  uint64_t start_ns = 0;  ///< Monotonic ns since Enable().
  uint64_t dur_ns = 0;    ///< kSpan only.
  /// Key/value annotations ("n" -> "64"). Rendered as Chrome args.
  std::vector<std::pair<std::string, std::string>> args;
};

/// The process-wide event sink. Thread-safe; all spans/instants record
/// here. Tests drive it through Enable/Disable/TakeEvents.
class Collector {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  /// The collector every trace::Span records into.
  static Collector& Global();

  /// Clears any previous events, re-anchors the time origin, and starts
  /// collecting. At most `capacity` events are kept; later events are
  /// dropped and counted.
  void Enable(size_t capacity = kDefaultCapacity) PSO_EXCLUDES(mu_);
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Events dropped because the buffer was full.
  uint64_t dropped() const PSO_EXCLUDES(mu_);

  /// Copy of every recorded event, in record order.
  std::vector<Event> TakeEvents() const PSO_EXCLUDES(mu_);

  /// Renders all events as a Chrome trace-event JSON document.
  std::string ChromeJson() const PSO_EXCLUDES(mu_);

  /// Writes ChromeJson() to `path`; false (with a stderr diagnostic) on
  /// I/O failure.
  bool WriteChromeJson(const std::string& path) const PSO_EXCLUDES(mu_);

  /// Remembers `path` so an aborting PSO_CHECK can flush a partial trace
  /// there (see check.h). Empty clears.
  void SetFlushPath(const std::string& path) PSO_EXCLUDES(mu_);

  /// Writes the trace to the SetFlushPath() destination, if one is set
  /// and any events were recorded. Called from the PSO_CHECK failure
  /// handler; best-effort.
  void FlushToConfiguredPath() const PSO_EXCLUDES(mu_);

  /// Monotonic nanoseconds since Enable() (0 when disabled).
  uint64_t NowNs() const PSO_EXCLUDES(mu_);

  // Internals used by Span/Instant.
  void Record(Event event) PSO_EXCLUDES(mu_);
  uint64_t NextSpanId();

 private:
  Collector() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_id_{1};
  mutable Mutex mu_;
  size_t capacity_ PSO_GUARDED_BY(mu_) = kDefaultCapacity;
  uint64_t dropped_ PSO_GUARDED_BY(mu_) = 0;
  std::vector<Event> events_ PSO_GUARDED_BY(mu_);
  std::string flush_path_ PSO_GUARDED_BY(mu_);
  /// steady_clock anchor, set by Enable.
  uint64_t epoch_ns_ PSO_GUARDED_BY(mu_) = 0;
};

/// True when the global collector is recording. The one branch
/// instrumented code pays when tracing is off.
inline bool Enabled() { return Collector::Global().enabled(); }

/// The innermost open span on this thread (the inherited parallel-region
/// span when the thread's own stack is empty); 0 when none.
uint64_t CurrentSpanId();

/// Sets the parent that spans opened on THIS thread fall back to while
/// their own stack is empty. ParallelFor wraps chunk execution in one of
/// these so worker-thread spans nest under the launching pipeline span.
class ContextScope {
 public:
  explicit ContextScope(uint64_t parent_span_id);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  uint64_t saved_;
};

/// RAII span: records a kSpan event covering construction..destruction.
/// Near-free when tracing is disabled (one relaxed load, no allocation).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value annotation, rendered into the span's Chrome
  /// args. No-op when the span is inactive (tracing was off at open).
  void Arg(const char* key, std::string value);

  /// This span's id (0 when inactive) — parent for manual child events.
  uint64_t id() const { return id_; }
  bool active() const { return active_; }

 private:
  bool active_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ns_ = 0;
  const char* name_;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Records an instant event under the current span.
void Instant(const char* name,
             std::vector<std::pair<std::string, std::string>> args = {});

}  // namespace pso::trace

// Span-with-unique-local-name convenience: PSO_TRACE_SPAN("lp.solve");
#define PSO_TRACE_CONCAT_INNER(a, b) a##b
#define PSO_TRACE_CONCAT(a, b) PSO_TRACE_CONCAT_INNER(a, b)
#define PSO_TRACE_SPAN(name) \
  ::pso::trace::Span PSO_TRACE_CONCAT(pso_trace_span_, __LINE__)(name)

#endif  // PSO_COMMON_TRACE_H_
