#include "core/ta_loss.h"

#include <algorithm>

#include "common/check.h"

namespace tamp::core {
namespace {

void ValidateParams(const TaLossParams& params) {
  TAMP_CHECK(params.kappa > 0.0 && params.kappa < 1.0);
  TAMP_CHECK(params.delta > 0.0);
  TAMP_CHECK(params.dq_km > 0.0);
}

}  // namespace

TaskOrientedWeighter::TaskOrientedWeighter(
    const geo::GridSpec& grid, const std::vector<geo::Point>& historical_tasks,
    const TaLossParams& params)
    : index_(grid, historical_tasks), params_(params),
      rho_(index_.MeanCountPerDisk(params.dq_km)) {
  ValidateParams(params);
}

double TaskOrientedWeighter::Weight(const geo::Point& location_km) const {
  int count = index_.CountWithin(location_km, params_.dq_km);
  double weight =
      params_.kappa * static_cast<double>(count) / rho_ + params_.delta;
  return std::min(weight, params_.max_weight);
}

std::function<double(const geo::Point&)> TaskOrientedWeighter::AsFunction()
    const {
  return [this](const geo::Point& p) { return Weight(p); };
}

}  // namespace tamp::core
