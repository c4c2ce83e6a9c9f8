#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tamp::nn {
namespace {

/// Quadratic bowl f(x) = sum (x_i - c_i)^2, gradient 2(x - c).
std::vector<double> QuadGrad(const std::vector<double>& x,
                             const std::vector<double>& c) {
  std::vector<double> g(x.size());
  for (size_t i = 0; i < x.size(); ++i) g[i] = 2.0 * (x[i] - c[i]);
  return g;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  std::vector<double> x = {5.0, -3.0};
  std::vector<double> target = {1.0, 2.0};
  Adam opt(x.size(), 0.1);
  for (int i = 0; i < 500; ++i) opt.Step(x, QuadGrad(x, target));
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], target[i], 1e-3);
}

TEST(AdamTest, FirstStepSizeIsLearningRate) {
  // Adam's bias correction makes the first step ~lr * sign(grad).
  std::vector<double> x = {0.0};
  Adam opt(1, 0.05);
  std::vector<double> g = {123.0};
  opt.Step(x, g);
  EXPECT_NEAR(x[0], -0.05, 1e-6);
}

TEST(ClipGradientNormTest, NoClipBelowMax) {
  std::vector<double> g = {3.0, 4.0};  // Norm 5.
  double norm = ClipGradientNorm(g, 10.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_DOUBLE_EQ(g[0], 3.0);
  EXPECT_DOUBLE_EQ(g[1], 4.0);
}

TEST(ClipGradientNormTest, RescalesAboveMax) {
  std::vector<double> g = {3.0, 4.0};  // Norm 5.
  double norm = ClipGradientNorm(g, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(std::sqrt(g[0] * g[0] + g[1] * g[1]), 1.0, 1e-12);
  EXPECT_NEAR(g[0] / g[1], 0.75, 1e-12);  // Direction preserved.
}

TEST(ClipGradientNormTest, ZeroGradientUntouched) {
  std::vector<double> g = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(ClipGradientNorm(g, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
}

}  // namespace
}  // namespace tamp::nn
