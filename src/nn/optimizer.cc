#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace tamp::nn {

Adam::Adam(size_t param_count, double learning_rate, double beta1,
           double beta2, double epsilon)
    : lr_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      m_(param_count, 0.0),
      v_(param_count, 0.0) {
  TAMP_CHECK(learning_rate > 0.0);
}

void Adam::Step(std::vector<double>& params, const std::vector<double>& grad) {
  TAMP_CHECK(params.size() == grad.size());
  TAMP_CHECK(params.size() == m_.size());
  ++t_;
  double bc1 = 1.0 - std::pow(beta1_, t_);
  double bc2 = 1.0 - std::pow(beta2_, t_);
  for (size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grad[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grad[i] * grad[i];
    double m_hat = m_[i] / bc1;
    double v_hat = v_[i] / bc2;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
  }
}

double ClipGradientNorm(std::vector<double>& grad, double max_norm) {
  TAMP_CHECK(max_norm > 0.0);
  double norm_sq = 0.0;
  for (double g : grad) norm_sq += g * g;
  double norm = std::sqrt(norm_sq);
  if (norm > max_norm) {
    double scale = max_norm / norm;
    for (double& g : grad) g *= scale;
  }
  return norm;
}

}  // namespace tamp::nn
