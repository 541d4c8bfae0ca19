#include "trace_layers.h"

#include <cstdio>
#include <unordered_map>

namespace pso::bench {

const char* const kLayers[6] = {"service", "dp",     "recon",
                                "solver",  "census", "common"};

std::string LayerOf(const std::string& span_name) {
  const std::string head = span_name.substr(0, span_name.find('.'));
  static const std::map<std::string, std::string> kByPrefix = {
      {"service", "service"}, {"loadgen", "service"}, {"wire", "service"},
      {"dp", "dp"},           {"recon", "recon"},     {"lp", "solver"},
      {"sat", "solver"},      {"csp", "solver"},      {"census", "census"},
      {"parallel", "common"}, {"trace", "common"},    {"metrics", "common"},
  };
  const auto it = kByPrefix.find(head);
  return it == kByPrefix.end() ? "" : it->second;
}

double LayerSplit::Fraction(const std::string& layer) const {
  const auto it = self_s.find(layer);
  return it == self_s.end() || total_s <= 0.0 ? 0.0 : it->second / total_s;
}

LayerSplit SplitLayers(const std::vector<trace::Event>& events,
                       uint64_t dropped) {
  LayerSplit split;
  split.dropped = dropped;
  for (const char* layer : kLayers) split.self_s[layer] = 0.0;
  std::unordered_map<uint64_t, const trace::Event*> by_id;
  for (const trace::Event& e : events) {
    if (e.kind == trace::Event::Kind::kSpan) by_id[e.id] = &e;
  }
  // Child time on the parent's own thread, per parent span.
  std::unordered_map<uint64_t, uint64_t> nested_ns;
  for (const auto& [id, e] : by_id) {
    const auto parent = by_id.find(e->parent);
    if (parent != by_id.end() && parent->second->track == e->track) {
      nested_ns[e->parent] += e->dur_ns;
    }
  }
  for (const auto& [id, e] : by_id) {
    const uint64_t nested = nested_ns[id];
    const double self =
        (e->dur_ns > nested ? e->dur_ns - nested : 0) * 1e-9;
    ++split.spans;
    split.total_s += self;
    split.by_name_s[e->name] += self;
    const std::string layer = LayerOf(e->name);
    if (layer.empty()) {
      split.unattributed_s += self;
    } else {
      split.self_s[layer] += self;
    }
    if (e->name.rfind("bench.", 0) == 0) split.root_s += e->dur_ns * 1e-9;
  }
  return split;
}

TracedSection::TracedSection(bool enabled, const std::string& workload)
    : enabled_(enabled), root_name_("bench." + workload) {
  if (!enabled_) return;
  trace::Collector::Global().Enable();
  root_.emplace(root_name_.c_str());
}

TracedSection::~TracedSection() {
  root_.reset();
  if (enabled_) trace::Collector::Global().Disable();
}

std::optional<LayerSplit> TracedSection::Finish(const std::string& chrome_path) {
  if (!enabled_) return std::nullopt;
  root_.reset();
  trace::Collector& collector = trace::Collector::Global();
  collector.Disable();
  enabled_ = false;
  if (!collector.WriteChromeJson(chrome_path)) {
    std::fprintf(stderr, "pso_bench: could not write %s\n", chrome_path.c_str());
  }
  return SplitLayers(collector.TakeEvents(), collector.dropped());
}

}  // namespace pso::bench
