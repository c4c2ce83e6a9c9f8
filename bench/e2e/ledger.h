#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/obs/trace.h"

namespace tamp::bench::e2e {

/// Per-layer self times of one traced phase, built from the recorded spans
/// of the benchmark's own thread. A span's self time is its duration minus
/// the part covered by its child spans on the same thread, so the layer
/// times plus `unattributed_s` add up to the phase wall-clock by
/// construction. Spans on pool threads run while a span of the benchmark
/// thread waits for them, so they are already inside that span's time.
struct Ledger {
  std::map<std::string, double> self_s;  // Layer -> summed self time.
  double unattributed_s = 0.0;  // Phase wall not covered by any span.
  double wall_s = 0.0;
  /// Durations (seconds) of every span named `sample_span`, in start order.
  std::vector<double> samples_s;
};

/// Builds the ledger of `events` for the benchmark's own thread, the one
/// that recorded the `bench.*` spans. `layer_of` maps a span name to its
/// layer; a span whose name is not in it counts toward its parent's layer,
/// so a span added inside the library later moves no time between layers.
/// A top-level span whose name is not mapped counts as unattributed.
Ledger BuildLedger(const std::vector<obs::TraceEvent>& events,
                   const std::map<std::string, std::string>& layer_of,
                   const std::string& sample_span, double wall_s);

/// Nearest-rank quantile (q in (0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace tamp::bench::e2e
