#include "core/rollout.h"

#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace tamp::core {

void RolloutPredict(const nn::EncoderDecoder& model,
                    const std::vector<const std::vector<double>*>& row_params,
                    const std::vector<std::vector<geo::Point>>& recent_km,
                    const geo::GridSpec& grid, int horizon_steps,
                    double now_min, double step_period_min,
                    FleetForecastScratch& scratch,
                    std::vector<std::vector<geo::TimedPoint>>* out) {
  TAMP_CHECK(out != nullptr);
  TAMP_CHECK(recent_km.size() == row_params.size());
  const size_t rows = row_params.size();
  out->resize(rows);
  if (rows == 0) return;
  TAMP_CHECK(horizon_steps >= 1);
  const int input_dim = model.config().input_dim;
  TAMP_CHECK_MSG(input_dim == 2 || input_dim == 3,
                 "rollout supports (x, y) or (x, y, time-of-day) inputs");
  TAMP_CHECK(!recent_km[0].empty());
  const size_t window_size = recent_km[0].size();
  for (const std::vector<geo::Point>& recent : recent_km) {
    TAMP_CHECK_MSG(recent.size() == window_size,
                   "batched rollout rows must share one window length");
  }
  TAMP_CHECK_MSG(model.config().output_dim == 2,
                 "rollout feeds back (x, y) predictions");

  auto time_of_day = [](double t_min) {
    return std::fmod(t_min, 1440.0) / 1440.0;
  };
  // Pack the fleet's windows as SoA [step][feature][row] (caller row order;
  // the engine handles its own column permutation).
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
  // Produced step s is stamped now + (s + 1) * step_period; with a time
  // input its time-of-day rides along when the engine feeds the prediction
  // back into the window.
  scratch.step_times.resize(steps);
  scratch.step_tod.resize(steps);
  for (size_t s = 0; s < steps; ++s) {
    scratch.step_times[s] =
        now_min + (static_cast<double>(s) + 1.0) * step_period_min;
    scratch.step_tod[s] = time_of_day(scratch.step_times[s]);
  }

  // The whole autoregressive horizon in one engine call (one region).
  model.Rollout(row_params, static_cast<int>(window_size),
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
