#pragma once

#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "nn/batched_seq2seq.h"
#include "nn/encoder_decoder.h"

namespace tamp::core {

/// Continuously forecasts a worker's routine (Def. 3's "continuously
/// forecast w's subsequent mobility routine"): encodes the `recent`
/// observed locations (km) and autoregressively rolls the decoder out for
/// `horizon_steps` future positions, re-encoding its own predictions, so
/// the predicted routine can span more steps than the model's native
/// seq_out. Returned points carry timestamps now + i * step_period_min.
/// `scratch` (optional) reuses the model's forward buffers across calls.
/// The simulator forecasts through RolloutPredictBatch; this per-worker
/// scalar chain is its oracle (nn_batched_forecast_test, bench_micro_nn).
std::vector<geo::TimedPoint> RolloutPredict(
    const nn::EncoderDecoder& model, const std::vector<double>& params,
    const std::vector<geo::Point>& recent_km, const geo::GridSpec& grid,
    int horizon_steps, double now_min, double step_period_min,
    nn::PredictScratch* scratch = nullptr);

/// Cross-batch state for RolloutPredictBatch: the engine scratch plus the
/// fleet-wide SoA sliding window and prediction buffers. Grow-only — the
/// simulator keeps one for its whole run, so steady-state batches are
/// allocation-free.
struct FleetForecastScratch {
  nn::BatchedSeq2SeqScratch engine;
  std::vector<double> window;  // [seq_len][input_dim][rows], row-ordered.
  std::vector<double> preds;   // [seq_out][output_dim][rows].
};

/// Fleet-batched RolloutPredict: one autoregressive rollout for all rows
/// at once through the SoA BatchedSeq2Seq engine. Row r's output is
/// bitwise identical to
///   RolloutPredict(model, *row_params[r], recent_km[r], ...)
/// for an EncoderDecoder sharing `engine`'s config — the window
/// normalization, time-of-day feature, denormalization and window slide
/// are element-wise identical, and the engine preserves the scalar
/// per-element dot-product order. All rows must share one window length
/// (the simulator's observation window is uniform by construction).
/// `(*out)[r]` receives row r's horizon_steps predicted points.
void RolloutPredictBatch(
    const nn::BatchedSeq2Seq& engine,
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out);

}  // namespace tamp::core
