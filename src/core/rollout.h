#pragma once

#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {

/// Cross-batch state for RolloutPredict: the engine scratch plus the
/// fleet-wide SoA observation windows, the per-step timestamps and the
/// prediction buffer. Grow-only — the simulator keeps one for its whole
/// run, so steady-state batches are allocation-free.
struct FleetForecastScratch {
  nn::RolloutScratch engine;
  std::vector<double> window;      // [seq_len][input_dim][rows], row-ordered.
  std::vector<double> step_times;  // [horizon] timestamps (min).
  std::vector<double> step_tod;    // [horizon] their time-of-day features.
  std::vector<double> preds;       // [horizon][2][rows].
};

/// Continuously forecasts the fleet's routines (Def. 3's "continuously
/// forecast w's subsequent mobility routine"): for every row, encodes the
/// `recent_km[r]` observed locations (km, normalized onto `grid`, plus
/// their time-of-day when the model takes a third input) and
/// autoregressively rolls the decoder out for `horizon_steps` future
/// positions, re-encoding its own predictions, so the predicted routine
/// can span more steps than the model's native seq_out. Row r runs on
/// `*row_params[r]`; `(*out)[r]` receives its horizon_steps points,
/// stamped now + i * step_period_min for i = 1..horizon_steps.
///
/// One EncoderDecoder::Rollout call — one parallel region — runs the
/// whole horizon for every row, each tile sliding its own windows. All
/// rows must share one window length (the simulator's observation window
/// is uniform by construction), and the model must predict (x, y). Row r
/// is bitwise equal to the scalar one-worker rollout
/// (tests/nn_oracle.h, checked by tests/nn_batched_forecast_test.cc).
void RolloutPredict(const nn::EncoderDecoder& model,
                    const std::vector<const std::vector<double>*>& row_params,
                    const std::vector<std::vector<geo::Point>>& recent_km,
                    const geo::GridSpec& grid, int horizon_steps,
                    double now_min, double step_period_min,
                    FleetForecastScratch& scratch,
                    std::vector<std::vector<geo::TimedPoint>>* out);

}  // namespace tamp::core
