#pragma once

#include <cstddef>
#include <vector>

namespace tamp::nn {

/// Adam optimizer used for per-worker fine-tuning after meta-initialization
/// (faster convergence than SGD on the few-shot adaptation data).
class Adam {
 public:
  Adam(size_t param_count, double learning_rate, double beta1 = 0.9,
       double beta2 = 0.999, double epsilon = 1e-8);

  void Step(std::vector<double>& params, const std::vector<double>& grad);

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  int t_ = 0;
  std::vector<double> m_;
  std::vector<double> v_;
};

/// Rescales `grad` so its L2 norm does not exceed `max_norm`; returns the
/// pre-clip norm. Guards BPTT against exploding gradients.
double ClipGradientNorm(std::vector<double>& grad, double max_norm);

}  // namespace tamp::nn
