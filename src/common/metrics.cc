#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/str_util.h"

namespace pso::metrics {

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0) || std::isnan(v)) return 0;  // zero, negative, NaN
  // frexp leaves the exponent unspecified for infinities, so route +inf
  // to the overflow bucket before touching it.
  if (std::isinf(v)) return kNumBuckets - 1;
  int exp = 0;
  // frexp: v = frac * 2^exp with frac in [0.5, 1), so the octave
  // containing v is [2^(exp-1), 2^exp). This is exact double-bit
  // arithmetic — no log() rounding to disagree across platforms.
  const double frac = std::frexp(v, &exp);
  const int octave = exp - 1;
  if (octave < kMinExponent) return 0;
  if (octave > kMaxExponent - 1) return kNumBuckets - 1;
  // frac-0.5 in [0, 0.5); scale to a sub-bucket in [0, kSubBuckets).
  const int sub = static_cast<int>((frac - 0.5) * (2 * kSubBuckets));
  return 1 + (octave - kMinExponent) * kSubBuckets + sub;
}

double Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0.0;
  if (i >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExponent);
  const int rel = i - 1;
  const int octave = kMinExponent + rel / kSubBuckets;
  const int sub = rel % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double Histogram::BucketUpperBound(int i) {
  if (i < 0) return 0.0;
  if (i >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return BucketLowerBound(i + 1);
}

void Histogram::Record(double v) {
  buckets_[static_cast<size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Fixed-point accumulation: integer adds commute, so the sum is
  // bit-identical at any thread count (double adds would not be).
  // Negative and non-finite values contribute 0 to the sum.
  if (v > 0.0 && std::isfinite(v)) {
    sum_fp_.fetch_add(static_cast<uint64_t>(v * kSumScale),
                      std::memory_order_relaxed);
  }
  if (!std::isnan(v)) {
    uint64_t cur = min_bits_.load(std::memory_order_relaxed);
    while (v < std::bit_cast<double>(cur) &&
           !min_bits_.compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                            std::memory_order_relaxed)) {
    }
    cur = max_bits_.load(std::memory_order_relaxed);
    while (v > std::bit_cast<double>(cur) &&
           !max_bits_.compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                            std::memory_order_relaxed)) {
    }
  }
}

double Histogram::min() const {
  if (count() == 0) return 0.0;
  const double m =
      std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
  return std::isinf(m) ? 0.0 : m;  // only NaNs were recorded
}

double Histogram::max() const {
  if (count() == 0) return 0.0;
  const double m =
      std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  return std::isinf(m) ? 0.0 : m;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_fp_.store(0, std::memory_order_relaxed);
  min_bits_.store(0x7FF0000000000000ull, std::memory_order_relaxed);
  max_bits_.store(0xFFF0000000000000ull, std::memory_order_relaxed);
}

int Snapshot::HistogramValue::BucketAtQuantile(double q) const {
  if (count == 0) return -1;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile under the empirical CDF, 1-based: the
  // smallest bucket whose cumulative tally reaches it.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t cum = 0;
  for (const auto& [idx, n] : buckets) {
    cum += n;
    if (cum >= rank) return idx;
  }
  return buckets.empty() ? -1 : buckets.rbegin()->first;
}

double Snapshot::HistogramValue::ValueAtQuantile(double q) const {
  const int idx = BucketAtQuantile(q);
  if (idx < 0) return 0.0;
  const double upper = Histogram::BucketUpperBound(idx);
  // Clamp to the observed range: the overflow bucket's upper bound is
  // +inf, and the true p100 can never exceed max (nor p0 undercut min).
  return std::clamp(upper, min, max);
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

Counter& Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  return FindHistogram(name, /*durations=*/false);
}

Histogram& Registry::GetSpanHistogram(const std::string& name) {
  return FindHistogram(name, /*durations=*/true);
}

Histogram& Registry::FindHistogram(const std::string& name, bool durations) {
  MutexLock lock(mu_);
  HistogramSlot& slot = histograms_[name];
  if (!slot.hist) slot.hist = std::make_unique<Histogram>();
  slot.durations = slot.durations || durations;
  return *slot.hist;
}

void Registry::SetGauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  gauges_[name] = value;
}

Snapshot Registry::TakeSnapshot() const {
  MutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, slot] : histograms_) {
    const auto& hist = slot.hist;
    Snapshot::HistogramValue hv;
    hv.count = hist->count();
    hv.sum_fp = hist->sum_fp();
    hv.min = hist->min();
    hv.max = hist->max();
    hv.durations = slot.durations;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t n = hist->bucket(i);
      if (n != 0) hv.buckets[i] = n;
    }
    snap.histograms[name] = std::move(hv);
  }
  snap.gauges = gauges_;
  return snap;
}

void Registry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, slot] : histograms_) slot.hist->Reset();
  gauges_.clear();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Trims trailing zeros off a %.9f rendering so JSON numbers stay tidy
// ("0.25" not "0.250000000") while keeping nanosecond resolution.
// Non-finite values render as null: JSON has no nan/inf literal, and
// "%.9f" would otherwise emit one and corrupt the whole document.
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  std::string s = StrFormat("%.9f", v);
  size_t last = s.find_last_not_of('0');
  if (last != std::string::npos) {
    if (s[last] == '.') ++last;  // keep one digit after the point
    s.erase(last + 1);
  }
  return s;
}

// The quantiles every summary renders, in display order.
constexpr struct {
  const char* key;
  double q;
} kQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p95", 0.95},
    {"p99", 0.99}, {"p999", 0.999},
};

std::string HistogramValueToJson(const Snapshot::HistogramValue& hv) {
  std::string out = StrFormat(
      "{\"count\": %llu, \"sum\": %s, \"sum_fp\": %llu, \"mean\": %s, "
      "\"min\": %s, \"max\": %s",
      static_cast<unsigned long long>(hv.count),
      FormatDouble(hv.sum()).c_str(),
      static_cast<unsigned long long>(hv.sum_fp),
      FormatDouble(hv.mean()).c_str(), FormatDouble(hv.min).c_str(),
      FormatDouble(hv.max).c_str());
  for (const auto& [key, q] : kQuantiles) {
    out += StrFormat(", \"%s\": %s", key,
                     FormatDouble(hv.ValueAtQuantile(q)).c_str());
  }
  out += ", \"buckets\": {";
  bool first = true;
  for (const auto& [idx, n] : hv.buckets) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("\"%d\": %llu", idx, static_cast<unsigned long long>(n));
  }
  out += "}}";
  return out;
}

}  // namespace

std::string SnapshotToJson(const Snapshot& snap) {
  std::string out = "{";
  out += "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("\"%s\": %llu", JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(value));
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("\"%s\": %s", JsonEscape(name).c_str(),
                     FormatDouble(value).c_str());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hv] : snap.histograms) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("\"%s\": %s", JsonEscape(name).c_str(),
                     HistogramValueToJson(hv).c_str());
  }
  out += "}}";
  return out;
}

std::string SnapshotToText(const Snapshot& snap) {
  if (snap.empty()) return "(no metrics recorded)\n";
  size_t width = 0;
  for (const auto& [name, v] : snap.counters) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.gauges) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.histograms) {
    width = std::max(width, name.size());
  }
  const int w = static_cast<int>(width);

  std::string out;
  if (!snap.counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      out += StrFormat("  %-*s %llu\n", w, name.c_str(),
                       static_cast<unsigned long long>(value));
    }
  }
  if (!snap.gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : snap.gauges) {
      out += StrFormat("  %-*s %.6g\n", w, name.c_str(), value);
    }
  }
  if (!snap.histograms.empty()) {
    out += "histograms:\n";
    for (const auto& [name, hv] : snap.histograms) {
      const char* u = hv.durations ? "s" : "";
      out += StrFormat(
          "  %-*s n=%llu mean=%.3g%s p50=%.3g%s p90=%.3g%s p95=%.3g%s "
          "p99=%.3g%s p999=%.3g%s max=%.3g%s\n",
          w, name.c_str(), static_cast<unsigned long long>(hv.count),
          hv.mean(), u, hv.ValueAtQuantile(0.50), u, hv.ValueAtQuantile(0.90),
          u, hv.ValueAtQuantile(0.95), u, hv.ValueAtQuantile(0.99), u,
          hv.ValueAtQuantile(0.999), u, hv.max, u);
    }
  }
  return out;
}

namespace {

// Prometheus metric names may only contain [a-zA-Z0-9_:] and must not
// start with a digit. Everything else (the registry's dots included)
// maps to '_'.
std::string PromName(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

// Prometheus sample values are free-form floats; "+Inf"/"-Inf"/"NaN" are
// the format's spellings for non-finite values.
std::string PromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return FormatDouble(v);
}

}  // namespace

std::string ExpositionToProm(const Snapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = PromName(name) + "_total";
    out += StrFormat("# HELP %s Event total (pso counter %s)\n", n.c_str(),
                     PromName(name).c_str());
    out += StrFormat("# TYPE %s counter\n", n.c_str());
    out += StrFormat("%s %llu\n", n.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = PromName(name);
    out += StrFormat("# HELP %s Point-in-time observation (pso gauge)\n",
                     n.c_str());
    out += StrFormat("# TYPE %s gauge\n", n.c_str());
    out += StrFormat("%s %s\n", n.c_str(), PromDouble(value).c_str());
  }
  for (const auto& [name, hv] : snap.histograms) {
    const std::string n = PromName(name) + (hv.durations ? "_seconds" : "");
    out += StrFormat("# HELP %s %s distribution (pso histogram)\n", n.c_str(),
                     hv.durations ? "Latency" : "Value");
    out += StrFormat("# TYPE %s histogram\n", n.c_str());
    // Prometheus buckets are CUMULATIVE and keyed by inclusive upper
    // bound; the series must end with le="+Inf" equal to _count.
    uint64_t cum = 0;
    for (const auto& [idx, count] : hv.buckets) {
      cum += count;
      const double ub = Histogram::BucketUpperBound(idx);
      if (std::isinf(ub)) continue;  // folded into +Inf below
      out += StrFormat("%s_bucket{le=\"%s\"} %llu\n", n.c_str(),
                       PromDouble(ub).c_str(),
                       static_cast<unsigned long long>(cum));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", n.c_str(),
                     static_cast<unsigned long long>(hv.count));
    out += StrFormat("%s_sum %s\n", n.c_str(), PromDouble(hv.sum()).c_str());
    out += StrFormat("%s_count %llu\n", n.c_str(),
                     static_cast<unsigned long long>(hv.count));
  }
  return out;
}

}  // namespace pso::metrics
