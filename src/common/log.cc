#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/metrics.h"  // JsonEscape
#include "common/mutex.h"
#include "common/str_util.h"
#include "common/thread_annotations.h"

namespace pso::log {

namespace {

std::atomic<int> g_min_level{static_cast<int>(Level::kWarn)};
std::atomic<bool> g_initialized{false};

// Sink state, guarded by one mutex: logging is a diagnostics path, not a
// throughput path. A class (not loose statics) so every member carries
// PSO_GUARDED_BY and the thread-safety analysis checks each access
// against mu_.
class SinkCore {
 public:
  /// The never-destroyed singleton (log statements may run from static
  /// destructors; heap allocation sidesteps destruction-order issues).
  static SinkCore& Get() {
    static SinkCore* s = new SinkCore();
    return *s;
  }

  void SetCapture(bool on) PSO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    capture_ = on;
    if (!on) captured_.clear();
  }

  std::string TakeCaptured() PSO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::string out = std::move(captured_);
    captured_.clear();
    return out;
  }

  /// Writes one already-rendered line straight to the sink.
  void Emit(const std::string& line) PSO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    WriteLineLocked(line);
  }

 private:
  SinkCore() = default;

  void WriteLineLocked(const std::string& line) PSO_REQUIRES(mu_) {
    if (capture_) {
      captured_ += line;
      captured_ += '\n';
      return;
    }
    std::fputs(line.c_str(), stderr);
    std::fputc('\n', stderr);
    std::fflush(stderr);
  }

  Mutex mu_;
  bool capture_ PSO_GUARDED_BY(mu_) = false;
  std::string captured_ PSO_GUARDED_BY(mu_);
};

// Logger time origin: first use of Now(). Log timestamps are display
// metadata, not measurements — they stay out of the metrics facade.
uint64_t NowMicros() {
  static const auto epoch =
      std::chrono::steady_clock::now();  // pso-lint: allow(wall-clock)
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() -  // pso-lint: allow(wall-clock)
          epoch)
          .count());
}

// Small per-thread display id, assigned on first log from a thread.
std::atomic<uint32_t> g_next_thread_id{1};
uint32_t ThreadId() {
  thread_local uint32_t id = 0;
  if (id == 0) id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void SetMinLevel(Level level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_initialized.store(true, std::memory_order_relaxed);
}

Level MinLevel() {
  return static_cast<Level>(g_min_level.load(std::memory_order_relaxed));
}

bool ShouldLog(Level level) {
  return static_cast<int>(level) >=
         g_min_level.load(std::memory_order_relaxed);
}

bool ParseLevel(const std::string& name, Level* out) {
  if (name == "debug") *out = Level::kDebug;
  else if (name == "info") *out = Level::kInfo;
  else if (name == "warn") *out = Level::kWarn;
  else if (name == "error") *out = Level::kError;
  else return false;
  return true;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
  }
  return "unknown";
}

void CaptureToString(bool on) {
  SinkCore::Get().SetCapture(on);
  g_initialized.store(true, std::memory_order_relaxed);
}

std::string TakeCaptured() { return SinkCore::Get().TakeCaptured(); }

bool Initialized() {
  return g_initialized.load(std::memory_order_relaxed);
}

LogMessage::LogMessage(Level level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage& LogMessage::Field(const char* key, const std::string& value) {
  fields_.emplace_back(key, value);
  return *this;
}
LogMessage& LogMessage::Field(const char* key, const char* value) {
  fields_.emplace_back(key, value);
  return *this;
}
LogMessage& LogMessage::FieldInt(const char* key, long long value) {
  fields_.emplace_back(key, StrFormat("%lld", value));
  return *this;
}
LogMessage& LogMessage::FieldUint(const char* key, unsigned long long value) {
  fields_.emplace_back(key, StrFormat("%llu", value));
  return *this;
}
LogMessage& LogMessage::Field(const char* key, double value) {
  fields_.emplace_back(key, StrFormat("%.9g", value));
  return *this;
}
LogMessage& LogMessage::Field(const char* key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

LogMessage& LogMessage::operator<<(const std::string& text) {
  msg_ += text;
  return *this;
}
LogMessage& LogMessage::operator<<(const char* text) {
  msg_ += text;
  return *this;
}
LogMessage& LogMessage::AppendInt(long long v) {
  msg_ += StrFormat("%lld", v);
  return *this;
}
LogMessage& LogMessage::AppendUint(unsigned long long v) {
  msg_ += StrFormat("%llu", v);
  return *this;
}
LogMessage& LogMessage::operator<<(double v) {
  msg_ += StrFormat("%.9g", v);
  return *this;
}
LogMessage& LogMessage::operator<<(bool v) {
  msg_ += v ? "true" : "false";
  return *this;
}

LogMessage::~LogMessage() {
  std::string line = "{";
  line += StrFormat("\"level\":\"%s\",\"ts_us\":%llu,\"thread\":%u",
                    LevelName(level_),
                    static_cast<unsigned long long>(NowMicros()), ThreadId());
  line += StrFormat(",\"src\":\"%s:%d\"",
                    metrics::JsonEscape(Basename(file_)).c_str(), line_);
  line += StrFormat(",\"msg\":\"%s\"", metrics::JsonEscape(msg_).c_str());
  if (!fields_.empty()) {
    line += ",\"fields\":{";
    bool first = true;
    for (const auto& [key, value] : fields_) {
      if (!first) line += ",";
      first = false;
      line += StrFormat("\"%s\":\"%s\"", metrics::JsonEscape(key).c_str(),
                        metrics::JsonEscape(value).c_str());
    }
    line += "}";
  }
  line += "}";
  SinkCore::Get().Emit(line);
}

}  // namespace pso::log
