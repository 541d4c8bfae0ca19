// Leveled, thread-safe, structured JSON-lines logging.
//
//   PSO_LOG(INFO) << "lp solved";
//   PSO_LOG(WARN).Field("block", b).Field("decisions", d) << "sat exhausted";
//
// Each statement emits one JSON object per line to the sink (stderr by
// default, or a file / in-memory capture):
//
//   {"level":"warn","ts_us":182034,"thread":3,"src":"sat.cc:241",
//    "msg":"sat exhausted","fields":{"block":"17","decisions":"500000"}}
//
// The default minimum level is WARN so instrumented libraries stay silent
// unless a tool opts in (psoctl's --log-level).
// Disabled levels cost one relaxed atomic load — the message object is
// never constructed.
//
// Deterministic mode (SetDeterministic(true)): messages are buffered and
// flushed in RANK order instead of wall-clock arrival order, with the
// run-dependent fields (ts_us, thread) omitted. Ranks are hierarchical
// keys that depend only on program structure: serial code takes keys in
// program order, and ParallelFor gives each chunk the key
// <region key>.<chunk index>, nesting arbitrarily. Because chunk
// boundaries depend only on n (never the thread count), a fixed seed
// yields byte-identical log output at 1 or 64 threads (log_test.cc).

#ifndef PSO_COMMON_LOG_H_
#define PSO_COMMON_LOG_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pso::log {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Macro-friendly aliases: PSO_LOG(INFO) expands to pso::log::kINFO.
inline constexpr Level kDEBUG = Level::kDebug;
inline constexpr Level kINFO = Level::kInfo;
inline constexpr Level kWARN = Level::kWarn;
inline constexpr Level kERROR = Level::kError;

/// Messages below `level` are discarded (default kWarn).
void SetMinLevel(Level level);
Level MinLevel();

/// The cheap front gate: one relaxed atomic load.
bool ShouldLog(Level level);

/// Parses "debug"/"info"/"warn"/"error" (case-sensitive). Returns false
/// and leaves `out` untouched on anything else.
bool ParseLevel(const std::string& name, Level* out);
const char* LevelName(Level level);

/// Routes output to a file (created/truncated at `path`); false on open
/// failure. Passing an empty path restores the default stderr sink.
bool SetFileSink(const std::string& path);

/// Routes output to an in-memory buffer (tests). TakeCaptured() returns
/// and clears it.
void CaptureToString(bool on);
std::string TakeCaptured();

/// Deterministic rank-ordered buffering (see file comment). Turning it
/// off flushes anything buffered.
void SetDeterministic(bool on);
bool DeterministicMode();

/// Writes buffered deterministic-mode messages (rank order) and fsyncs
/// nothing; safe to call at any time, from any mode.
void Flush();

/// True once any sink configuration ran — the PSO_CHECK handler uses
/// this to decide between structured output and the raw-fprintf
/// fallback.
bool Initialized();

/// One log statement under construction; emits on destruction.
class LogMessage {
 public:
  LogMessage(Level level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  /// Structured key/value annotations (kept separate from the text).
  LogMessage& Field(const char* key, const std::string& value);
  LogMessage& Field(const char* key, const char* value);
  LogMessage& Field(const char* key, double value);
  LogMessage& Field(const char* key, bool value);
  /// One template per integer family instead of fixed-width overloads:
  /// int64_t/long/size_t alias differently across platforms and would
  /// collide as distinct overloads.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  LogMessage& Field(const char* key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return FieldInt(key, static_cast<long long>(value));
    } else {
      return FieldUint(key, static_cast<unsigned long long>(value));
    }
  }

  /// Free-text message body.
  LogMessage& operator<<(const std::string& text);
  LogMessage& operator<<(const char* text);
  LogMessage& operator<<(double v);
  LogMessage& operator<<(bool v);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  LogMessage& operator<<(T v) {
    if constexpr (std::is_signed_v<T>) {
      return AppendInt(static_cast<long long>(v));
    } else {
      return AppendUint(static_cast<unsigned long long>(v));
    }
  }

 private:
  LogMessage& FieldInt(const char* key, long long value);
  LogMessage& FieldUint(const char* key, unsigned long long value);
  LogMessage& AppendInt(long long v);
  LogMessage& AppendUint(unsigned long long v);

  Level level_;
  const char* file_;
  int line_;
  std::string msg_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Deterministic-mode rank scoping. ParallelFor allocates one region key
/// on the calling thread (AllocateRegionKey) and wraps each chunk body in
/// RankScope(region_key, chunk_index); messages inside take hierarchical
/// keys under it. Nesting composes: an inner ParallelFor inside a chunk
/// extends the chunk's key.
class RankScope {
 public:
  RankScope(const std::vector<uint64_t>& region_key, uint64_t rank);
  ~RankScope();
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  std::vector<uint64_t> saved_prefix_;
  uint64_t saved_seq_;
};

/// Claims the sort key for a parallel region at the current scope. Must
/// be called on the thread launching the region (the key consumes one
/// slot in that scope's program order).
std::vector<uint64_t> AllocateRegionKey();

}  // namespace pso::log

// Statement-shaped level gate: when the level is disabled the LogMessage
// is never constructed. The for(;;) makes PSO_LOG(X) << ... a single
// statement with no dangling-else hazard.
#define PSO_LOG(severity)                                                  \
  for (bool pso_log_once =                                                 \
           ::pso::log::ShouldLog(::pso::log::k##severity);                 \
       pso_log_once; pso_log_once = false)                                 \
  ::pso::log::LogMessage(::pso::log::k##severity, __FILE__, __LINE__)

#endif  // PSO_COMMON_LOG_H_
