#include "common/trace.h"

#include <chrono>
#include <cstdio>

#include "common/metrics.h"  // JsonEscape
#include "common/str_util.h"

namespace pso::trace {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread tracing state: the stack of open spans, the parent inherited
// from a parallel region, and this thread's display track id.
struct ThreadState {
  std::vector<uint64_t> span_stack;
  uint64_t inherited_parent = 0;
  uint32_t track = 0;  // 0 = not yet assigned
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

std::atomic<uint32_t> g_next_track{1};

uint32_t CurrentTrack() {
  ThreadState& s = State();
  if (s.track == 0) {
    s.track = g_next_track.fetch_add(1, std::memory_order_relaxed);
  }
  return s.track;
}

uint64_t ParentForNewEvent() {
  const ThreadState& s = State();
  return s.span_stack.empty() ? s.inherited_parent : s.span_stack.back();
}

}  // namespace

Collector& Collector::Global() {
  static Collector* instance = new Collector();  // never destroyed
  return *instance;
}

void Collector::Enable(size_t capacity) {
  MutexLock lock(mu_);
  events_.clear();
  dropped_ = 0;
  capacity_ = capacity == 0 ? 1 : capacity;
  epoch_ns_ = SteadyNowNs();
  enabled_.store(true, std::memory_order_relaxed);
}

void Collector::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

uint64_t Collector::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::vector<Event> Collector::TakeEvents() const {
  MutexLock lock(mu_);
  return events_;
}

uint64_t Collector::NowNs() const {
  if (!enabled()) return 0;
  uint64_t epoch;
  {
    MutexLock lock(mu_);
    epoch = epoch_ns_;
  }
  uint64_t now = SteadyNowNs();
  return now > epoch ? now - epoch : 0;
}

void Collector::Record(Event event) {
  MutexLock lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

uint64_t Collector::NextSpanId() {
  return next_span_id_.fetch_add(1, std::memory_order_relaxed);
}

void Collector::SetFlushPath(const std::string& path) {
  MutexLock lock(mu_);
  flush_path_ = path;
}

void Collector::FlushToConfiguredPath() const {
  std::string path;
  bool have_events;
  {
    MutexLock lock(mu_);
    path = flush_path_;
    have_events = !events_.empty();
  }
  if (path.empty() || !have_events) return;
  WriteChromeJson(path);
}

uint64_t CurrentSpanId() { return ParentForNewEvent(); }

ContextScope::ContextScope(uint64_t parent_span_id) {
  ThreadState& s = State();
  saved_ = s.inherited_parent;
  s.inherited_parent = parent_span_id;
}

ContextScope::~ContextScope() { State().inherited_parent = saved_; }

Span::Span(const char* name) : active_(Enabled()), name_(name) {
  if (!active_) return;
  Collector& c = Collector::Global();
  id_ = c.NextSpanId();
  parent_ = ParentForNewEvent();
  start_ns_ = c.NowNs();
  State().span_stack.push_back(id_);
}

void Span::Arg(const char* key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

Span::~Span() {
  if (!active_) return;
  ThreadState& s = State();
  // Pop our frame. Scoped construction order guarantees we are on top of
  // this thread's stack.
  if (!s.span_stack.empty() && s.span_stack.back() == id_) {
    s.span_stack.pop_back();
  }
  Collector& c = Collector::Global();
  Event e;
  e.kind = Event::Kind::kSpan;
  e.name = name_;
  e.id = id_;
  e.parent = parent_;
  e.track = CurrentTrack();
  e.start_ns = start_ns_;
  uint64_t end = c.NowNs();
  e.dur_ns = end > start_ns_ ? end - start_ns_ : 0;
  e.args = std::move(args_);
  c.Record(std::move(e));
}

void Instant(const char* name,
             std::vector<std::pair<std::string, std::string>> args) {
  if (!Enabled()) return;
  Collector& c = Collector::Global();
  Event e;
  e.kind = Event::Kind::kInstant;
  e.name = name;
  e.parent = ParentForNewEvent();
  e.track = CurrentTrack();
  e.start_ns = c.NowNs();
  e.args = std::move(args);
  c.Record(std::move(e));
}

namespace {

std::string FormatMicros(uint64_t ns) {
  // Chrome expects microseconds; keep nanosecond resolution as a decimal.
  return StrFormat("%llu.%03llu",
                   static_cast<unsigned long long>(ns / 1000),
                   static_cast<unsigned long long>(ns % 1000));
}

void AppendArgsJson(std::string& out, const Event& e) {
  out += "\"args\":{";
  bool first = true;
  if (e.kind == Event::Kind::kSpan) {
    out += StrFormat("\"id\":\"%llx\",\"parent\":\"%llx\"",
                     static_cast<unsigned long long>(e.id),
                     static_cast<unsigned long long>(e.parent));
    first = false;
  }
  for (const auto& [key, value] : e.args) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":\"%s\"", metrics::JsonEscape(key).c_str(),
                     metrics::JsonEscape(value).c_str());
  }
  out += "}";
}

}  // namespace

std::string Collector::ChromeJson() const {
  std::vector<Event> events = TakeEvents();
  uint64_t dropped_events = dropped();

  std::string out = "{\n\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"pso\"}}";
  for (const Event& e : events) {
    out += ",\n{";
    out += StrFormat("\"name\":\"%s\",", metrics::JsonEscape(e.name).c_str());
    switch (e.kind) {
      case Event::Kind::kSpan:
        out += StrFormat("\"ph\":\"X\",\"ts\":%s,\"dur\":%s,",
                         FormatMicros(e.start_ns).c_str(),
                         FormatMicros(e.dur_ns).c_str());
        break;
      case Event::Kind::kInstant:
        out += StrFormat("\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,",
                         FormatMicros(e.start_ns).c_str());
        break;
    }
    out += StrFormat("\"pid\":1,\"tid\":%u,", e.track);
    AppendArgsJson(out, e);
    out += "}";
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n";
  out += StrFormat("\"otherData\":{\"dropped_events\":\"%llu\"}\n}\n",
                   static_cast<unsigned long long>(dropped_events));
  return out;
}

bool Collector::WriteChromeJson(const std::string& path) const {
  std::string json = ChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(json.data(), 1, json.size(), f) == json.size();
  // A short trace sits in the stdio buffer, so a full disk surfaces only
  // at fclose.
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) std::fprintf(stderr, "cannot write trace to '%s'\n", path.c_str());
  return ok;
}

}  // namespace pso::trace
