#include "core/rollout.h"

#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace tamp::core {

std::vector<geo::TimedPoint> RolloutPredict(
    const nn::EncoderDecoder& model, const std::vector<double>& params,
    const std::vector<geo::Point>& recent_km, const geo::GridSpec& grid,
    int horizon_steps, double now_min, double step_period_min,
    nn::PredictScratch* scratch) {
  TAMP_CHECK(!recent_km.empty());
  TAMP_CHECK(horizon_steps >= 1);
  const int input_dim = model.config().input_dim;
  TAMP_CHECK_MSG(input_dim == 2 || input_dim == 3,
                 "rollout supports (x, y) or (x, y, time-of-day) inputs");

  // Observed inputs: the i-th recent point was reported at
  // now - (n-1-i) * step_period.
  auto time_of_day = [](double t_min) {
    return std::fmod(t_min, 1440.0) / 1440.0;
  };
  nn::Sequence window;
  window.reserve(recent_km.size());
  for (size_t i = 0; i < recent_km.size(); ++i) {
    geo::Point n = grid.Normalize(recent_km[i]);
    double t = now_min - (static_cast<double>(recent_km.size() - 1 - i)) *
                             step_period_min;
    std::vector<double> step = {n.x, n.y};
    if (input_dim == 3) step.push_back(time_of_day(t));
    window.push_back(std::move(step));
  }
  const size_t window_size = window.size();

  std::vector<geo::TimedPoint> out;
  out.reserve(static_cast<size_t>(horizon_steps));
  while (static_cast<int>(out.size()) < horizon_steps) {
    nn::Sequence pred = model.Predict(params, window, scratch);
    for (const auto& step : pred) {
      if (static_cast<int>(out.size()) >= horizon_steps) break;
      geo::Point km = grid.Denormalize({step[0], step[1]});
      double t = now_min + (static_cast<double>(out.size()) + 1.0) *
                               step_period_min;
      out.push_back({km, t});
      // Slide the window: feed the prediction back as the latest
      // observation (with its future timestamp when time is an input).
      std::vector<double> next = {step[0], step[1]};
      if (input_dim == 3) next.push_back(time_of_day(t));
      window.push_back(std::move(next));
      if (window.size() > window_size) window.erase(window.begin());
    }
  }
  return out;
}

void RolloutPredictBatch(
    const nn::BatchedSeq2Seq& engine,
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<std::vector<geo::Point>>& recent_km,
    const geo::GridSpec& grid, int horizon_steps, double now_min,
    double step_period_min, FleetForecastScratch& scratch,
    std::vector<std::vector<geo::TimedPoint>>* out) {
  TAMP_CHECK(out != nullptr);
  TAMP_CHECK(recent_km.size() == row_params.size());
  const size_t rows = row_params.size();
  out->resize(rows);
  if (rows == 0) return;
  TAMP_CHECK(horizon_steps >= 1);
  const int input_dim = engine.config().input_dim;
  TAMP_CHECK_MSG(input_dim == 2 || input_dim == 3,
                 "rollout supports (x, y) or (x, y, time-of-day) inputs");
  TAMP_CHECK(!recent_km[0].empty());
  const size_t window_size = recent_km[0].size();
  for (const std::vector<geo::Point>& recent : recent_km) {
    TAMP_CHECK_MSG(recent.size() == window_size,
                   "batched rollout rows must share one window length");
  }
  TAMP_CHECK_MSG(engine.config().output_dim == 2,
                 "rollout feeds back (x, y) predictions");

  auto time_of_day = [](double t_min) {
    return std::fmod(t_min, 1440.0) / 1440.0;
  };
  // Pack the fleet's windows as SoA [step][feature][row] (caller row order;
  // the engine handles its own column permutation). Same normalization and
  // timestamps as the scalar path, element for element.
  const size_t id = static_cast<size_t>(input_dim);
  const size_t steps = static_cast<size_t>(horizon_steps);
  scratch.window.resize(window_size * id * rows);
  scratch.preds.resize(steps * 2 * rows);
  for (size_t t = 0; t < window_size; ++t) {
    const double t_min =
        now_min -
        static_cast<double>(window_size - 1 - t) * step_period_min;
    const double tod = time_of_day(t_min);
    double* wx = scratch.window.data() + (t * id + 0) * rows;
    double* wy = scratch.window.data() + (t * id + 1) * rows;
    double* wt = input_dim == 3
                     ? scratch.window.data() + (t * id + 2) * rows
                     : nullptr;
    for (size_t r = 0; r < rows; ++r) {
      geo::Point n = grid.Normalize(recent_km[r][t]);
      wx[r] = n.x;
      wy[r] = n.y;
      if (wt != nullptr) wt[r] = tod;
    }
  }
  // Produced step s is stamped now + (s + 1) * step_period, exactly like
  // the scalar loop; with a time input its time-of-day rides along when the
  // engine feeds the prediction back into the window.
  scratch.step_times.resize(steps);
  scratch.step_tod.resize(steps);
  for (size_t s = 0; s < steps; ++s) {
    scratch.step_times[s] =
        now_min + (static_cast<double>(s) + 1.0) * step_period_min;
    scratch.step_tod[s] = time_of_day(scratch.step_times[s]);
  }

  // The whole autoregressive horizon in one engine call (one region).
  engine.Rollout(row_params, static_cast<int>(window_size),
                 scratch.window.data(), horizon_steps,
                 input_dim == 3 ? scratch.step_tod.data() : nullptr,
                 scratch.preds.data(), scratch.engine);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<geo::TimedPoint>& row = (*out)[r];
    row.resize(steps);
    for (size_t s = 0; s < steps; ++s) {
      const double px = scratch.preds[(s * 2 + 0) * rows + r];
      const double py = scratch.preds[(s * 2 + 1) * rows + r];
      row[s] = {grid.Denormalize({px, py}), scratch.step_times[s]};
    }
  }
}

}  // namespace tamp::core
