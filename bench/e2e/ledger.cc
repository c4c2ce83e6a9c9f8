#include "ledger.h"

#include <algorithm>
#include <cmath>

namespace tamp::bench::e2e {

Ledger BuildLedger(const std::vector<obs::TraceEvent>& events,
                   const std::map<std::string, std::string>& layer_of,
                   const std::string& sample_span, double wall_s) {
  Ledger ledger;
  ledger.wall_s = wall_s;
  int tid = -1;
  for (const obs::TraceEvent& e : events) {
    if (e.name.rfind("bench.", 0) == 0) {
      tid = e.tid;
      break;
    }
  }
  std::vector<const obs::TraceEvent*> own;
  for (const obs::TraceEvent& e : events) {
    if (e.tid == tid) own.push_back(&e);
  }
  // Events are recorded at span end; start order with parents first
  // rebuilds the nesting.
  std::sort(own.begin(), own.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->depth < b->depth;
            });

  std::vector<double> child_us(own.size(), 0.0);
  std::vector<std::string> layer(own.size());
  std::vector<size_t> open;  // open[d] = index of the enclosing depth-d span.
  double covered_us = 0.0;
  for (size_t i = 0; i < own.size(); ++i) {
    const obs::TraceEvent& e = *own[i];
    const size_t depth = static_cast<size_t>(std::max(e.depth, 0));
    const bool has_parent = depth > 0 && open.size() >= depth;
    open.resize(std::min(open.size(), depth));
    open.push_back(i);
    if (has_parent) child_us[open[depth - 1]] += e.dur_us;
    if (!has_parent) covered_us += e.dur_us;
    auto mapped = layer_of.find(e.name);
    if (mapped != layer_of.end()) {
      layer[i] = mapped->second;
    } else if (has_parent) {
      layer[i] = layer[open[depth - 1]];
    }
    if (e.name == sample_span) ledger.samples_s.push_back(e.dur_us * 1e-6);
  }
  double unmapped_us = 0.0;
  for (size_t i = 0; i < own.size(); ++i) {
    const double self_us = own[i]->dur_us - child_us[i];
    if (layer[i].empty()) {
      unmapped_us += self_us;
    } else {
      ledger.self_s[layer[i]] += self_us * 1e-6;
    }
  }
  ledger.unattributed_s = wall_s - (covered_us - unmapped_us) * 1e-6;
  return ledger;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace tamp::bench::e2e
