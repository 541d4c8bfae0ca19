// Leveled, thread-safe, structured JSON-lines logging.
//
//   PSO_LOG(INFO) << "lp solved";
//   PSO_LOG(WARN).Field("block", b).Field("decisions", d) << "sat exhausted";
//
// Each statement emits one JSON object per line to stderr, in arrival
// order:
//
//   {"level":"warn","ts_us":182034,"thread":3,"src":"sat.cc:241",
//    "msg":"sat exhausted","fields":{"block":"17","decisions":"500000"}}
//
// The default minimum level is WARN so instrumented libraries stay silent
// unless a tool opts in (psoctl's --log-level).
// Disabled levels cost one relaxed atomic load — the message object is
// never constructed.

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

/// The cheap front gate: one relaxed atomic load.
bool ShouldLog(Level level);

/// Parses "debug"/"info"/"warn"/"error" (case-sensitive). Returns false
/// and leaves `out` untouched on anything else.
bool ParseLevel(const std::string& name, Level* out);
const char* LevelName(Level level);

/// True once SetMinLevel ran — the PSO_CHECK handler uses this to decide
/// between structured output and the raw-fprintf fallback.
bool Initialized();

/// One log statement under construction; emits on destruction.
class LogMessage {
 public:
  LogMessage(Level level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  /// Structured key/value annotations (kept separate from the text).
  LogMessage& Field(const char* key, const char* value);
  LogMessage& Field(const char* key, double value);
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

  /// Free-text message body; values go in Field()s.
  LogMessage& operator<<(const char* text);

 private:
  LogMessage& FieldInt(const char* key, long long value);
  LogMessage& FieldUint(const char* key, unsigned long long value);

  Level level_;
  const char* file_;
  int line_;
  std::string msg_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

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
