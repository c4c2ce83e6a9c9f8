#pragma once

// The scalar LSTM encoder-decoder: one sample and one step at a time,
// written for clarity, not speed. It is the oracle of the engine's parity
// tests — nn::EncoderDecoder's forecast (nn_batched_forecast_test) and
// training pass (meta_batched_gradient_test) must equal it bit for bit —
// and its layer steps carry the step-level finite-difference checks
// (nn_gradient_check_test). Those parity tests pin every summation order
// below: each dot product starts at the bias (forward) or at 0.0
// (backward) and runs its index ascending; a sample's parameter gradient
// adds the steps' terms last step first.

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "nn/encoder_decoder.h"

namespace tamp::nn::oracle {

inline double Sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

/// What one LSTM step keeps for its backward: its input and incoming
/// state, the post-activation gates and tanh of the new cell state.
struct LstmStep {
  std::vector<double> x, h_prev, c_prev;
  std::vector<double> i, f, g, o;
  std::vector<double> tanh_c;
};

/// One LSTM step of `cell` (its layout in `params`): z = b + W_x x +
/// W_h h_prev with gate blocks [i f g o], c = f c_prev + i g, h = o
/// tanh(c). Updates h and c in place.
inline LstmStep LstmForward(const LstmCell& cell,
                            const std::vector<double>& params,
                            const std::vector<double>& x,
                            std::vector<double>& h, std::vector<double>& c) {
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  TAMP_CHECK(x.size() == id && h.size() == hd && c.size() == hd);
  const double* wx = params.data() + cell.offset();
  const double* wh = wx + 4 * hd * id;
  const double* b = wh + 4 * hd * hd;

  LstmStep step;
  step.x = x;
  step.h_prev = h;
  step.c_prev = c;
  std::vector<double> z(4 * hd);
  for (size_t r = 0; r < 4 * hd; ++r) {
    double acc = b[r];
    for (size_t k = 0; k < id; ++k) acc += wx[r * id + k] * x[k];
    for (size_t k = 0; k < hd; ++k) acc += wh[r * hd + k] * step.h_prev[k];
    z[r] = acc;
  }
  step.i.resize(hd);
  step.f.resize(hd);
  step.g.resize(hd);
  step.o.resize(hd);
  step.tanh_c.resize(hd);
  for (size_t k = 0; k < hd; ++k) {
    step.i[k] = Sigmoid(z[k]);
    step.f[k] = Sigmoid(z[hd + k]);
    step.g[k] = std::tanh(z[2 * hd + k]);
    step.o[k] = Sigmoid(z[3 * hd + k]);
    c[k] = step.f[k] * step.c_prev[k] + step.i[k] * step.g[k];
    step.tanh_c[k] = std::tanh(c[k]);
    h[k] = step.o[k] * step.tanh_c[k];
  }
  return step;
}

/// Backward through one LSTM step. `dh`/`dc` hold the gradient w.r.t. the
/// step's h and c and are replaced by the gradient w.r.t. h_prev and
/// c_prev. The parameter gradients are added into `grad`. (Teacher forcing
/// makes every step input a constant, so no input gradient is formed.)
inline void LstmBackward(const LstmCell& cell,
                         const std::vector<double>& params,
                         const LstmStep& step, std::vector<double>& dh,
                         std::vector<double>& dc, std::vector<double>& grad) {
  TAMP_CHECK(grad.size() == params.size());
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  const double* wh = params.data() + cell.offset() + 4 * hd * id;
  double* dwx = grad.data() + cell.offset();
  double* dwh = dwx + 4 * hd * id;
  double* db = dwh + 4 * hd * hd;

  // Gate pre-activation gradients dz, blocks [i f g o].
  std::vector<double> dz(4 * hd);
  std::vector<double> dc_prev(hd);
  for (size_t k = 0; k < hd; ++k) {
    const double i = step.i[k], f = step.f[k], g = step.g[k], o = step.o[k];
    const double tc = step.tanh_c[k];
    const double d_o = dh[k] * tc;
    const double d_c = dc[k] + dh[k] * o * (1.0 - tc * tc);
    const double d_i = d_c * g;
    const double d_f = d_c * step.c_prev[k];
    const double d_g = d_c * i;
    dz[k] = d_i * i * (1.0 - i);
    dz[hd + k] = d_f * f * (1.0 - f);
    dz[2 * hd + k] = d_g * (1.0 - g * g);
    dz[3 * hd + k] = d_o * o * (1.0 - o);
    dc_prev[k] = d_c * f;
  }

  std::vector<double> dh_prev(hd, 0.0);
  for (size_t r = 0; r < 4 * hd; ++r) {
    db[r] += dz[r];
    for (size_t k = 0; k < id; ++k) dwx[r * id + k] += dz[r] * step.x[k];
    for (size_t k = 0; k < hd; ++k) {
      dwh[r * hd + k] += dz[r] * step.h_prev[k];
      dh_prev[k] += dz[r] * wh[r * hd + k];
    }
  }
  dh = dh_prev;
  dc = dc_prev;
}

/// y = W x + b for `layer` (its layout in `params`).
inline std::vector<double> LinearForward(const Linear& layer,
                                         const std::vector<double>& params,
                                         const std::vector<double>& x) {
  const size_t in = static_cast<size_t>(layer.in_dim());
  const size_t out = static_cast<size_t>(layer.out_dim());
  TAMP_CHECK(x.size() == in);
  const double* w = params.data() + layer.offset();
  const double* b = w + out * in;
  std::vector<double> y(out);
  for (size_t r = 0; r < out; ++r) {
    double acc = b[r];
    for (size_t k = 0; k < in; ++k) acc += w[r * in + k] * x[k];
    y[r] = acc;
  }
  return y;
}

/// Backward through y = W x + b: adds the parameter gradients into `grad`
/// and writes the input gradient to `*dx` when `dx` is non-null.
inline void LinearBackward(const Linear& layer,
                           const std::vector<double>& params,
                           const std::vector<double>& x,
                           const std::vector<double>& dy,
                           std::vector<double>& grad,
                           std::vector<double>* dx = nullptr) {
  TAMP_CHECK(grad.size() == params.size());
  const size_t in = static_cast<size_t>(layer.in_dim());
  const size_t out = static_cast<size_t>(layer.out_dim());
  const double* w = params.data() + layer.offset();
  double* dw = grad.data() + layer.offset();
  double* db = dw + out * in;
  if (dx != nullptr) dx->assign(in, 0.0);
  for (size_t r = 0; r < out; ++r) {
    db[r] += dy[r];
    for (size_t k = 0; k < in; ++k) {
      dw[r * in + k] += dy[r] * x[k];
      if (dx != nullptr) (*dx)[k] += dy[r] * w[r * in + k];
    }
  }
}

/// Eq. 6: L = (1/|r|) sum_i f_w(l_i) ||l_i - l̂_i||^2, normalized by the
/// number of terms (steps x dimensions) so losses are comparable across
/// output dims. `weights` has one entry per step; empty means uniform
/// (plain MSE).
inline double WeightedMse(const Sequence& predicted, const Sequence& target,
                          const std::vector<double>& weights) {
  TAMP_CHECK(!predicted.empty() && predicted.size() == target.size());
  TAMP_CHECK(weights.empty() || weights.size() == predicted.size());
  double acc = 0.0;
  size_t terms = 0;
  for (size_t t = 0; t < predicted.size(); ++t) {
    TAMP_CHECK(predicted[t].size() == target[t].size());
    const double w = weights.empty() ? 1.0 : weights[t];
    for (size_t d = 0; d < predicted[t].size(); ++d) {
      const double diff = predicted[t][d] - target[t][d];
      acc += w * diff * diff;
    }
    terms += predicted[t].size();
  }
  return acc / static_cast<double>(terms);
}

/// dWeightedMse / dpredicted, shaped like `predicted`.
inline Sequence WeightedMseGradient(const Sequence& predicted,
                                    const Sequence& target,
                                    const std::vector<double>& weights) {
  TAMP_CHECK(!predicted.empty() && predicted.size() == target.size());
  TAMP_CHECK(weights.empty() || weights.size() == predicted.size());
  size_t terms = 0;
  for (const std::vector<double>& step : predicted) terms += step.size();
  const double scale = 2.0 / static_cast<double>(terms);
  Sequence grad(predicted.size());
  for (size_t t = 0; t < predicted.size(); ++t) {
    const double w = weights.empty() ? 1.0 : weights[t];
    for (size_t d = 0; d < predicted[t].size(); ++d) {
      grad[t].push_back(scale * w * (predicted[t][d] - target[t][d]));
    }
  }
  return grad;
}

/// One window's forward pass and what its backward reads.
struct ForwardPass {
  std::vector<LstmStep> encoder_steps;
  std::vector<LstmStep> decoder_steps;
  Sequence decoder_h;  // h after each decoder step: the readout's input.
  Sequence outputs;    // The seq_out predicted steps.
};

/// Encodes `input` and decodes seq_out steps. The decoder's first input is
/// the last observed step resized to output_dim (truncated or
/// zero-padded); each later one is the previous target step when
/// `teacher` is non-null (training) and the previous prediction otherwise.
inline ForwardPass RunForward(const EncoderDecoder& model,
                              const std::vector<double>& params,
                              const Sequence& input, const Sequence* teacher) {
  const Seq2SeqConfig& config = model.config();
  TAMP_CHECK(params.size() == model.param_count());
  TAMP_CHECK(!input.empty());
  const size_t hd = static_cast<size_t>(config.hidden_dim);
  const size_t od = static_cast<size_t>(config.output_dim);
  std::vector<double> h(hd, 0.0), c(hd, 0.0);
  ForwardPass pass;
  for (const std::vector<double>& x : input) {
    pass.encoder_steps.push_back(LstmForward(model.encoder(), params, x, h, c));
  }
  std::vector<double> x = input.back();
  x.resize(od, 0.0);
  for (size_t t = 0; t < static_cast<size_t>(config.seq_out); ++t) {
    pass.decoder_steps.push_back(LstmForward(model.decoder(), params, x, h, c));
    pass.decoder_h.push_back(h);
    pass.outputs.push_back(LinearForward(model.readout(), params, h));
    x = teacher != nullptr ? (*teacher)[t] : pass.outputs[t];
    x.resize(od, 0.0);
  }
  return pass;
}

/// Autoregressive prediction of one window's seq_out next steps.
inline Sequence Predict(const EncoderDecoder& model,
                        const std::vector<double>& params,
                        const Sequence& input) {
  return RunForward(model, params, input, /*teacher=*/nullptr).outputs;
}

/// Teacher-forced weighted-MSE loss of one sample; adds dLoss/dparams into
/// `grad` (param_count() long) and returns the loss.
inline double LossAndGradient(const EncoderDecoder& model,
                              const std::vector<double>& params,
                              const Sequence& input, const Sequence& target,
                              const std::vector<double>& weights,
                              std::vector<double>& grad) {
  TAMP_CHECK(grad.size() == model.param_count());
  TAMP_CHECK(static_cast<int>(target.size()) == model.config().seq_out);
  const ForwardPass pass = RunForward(model, params, input, &target);
  const double loss = WeightedMse(pass.outputs, target, weights);
  const Sequence dout = WeightedMseGradient(pass.outputs, target, weights);

  // Teacher forcing makes the decoder inputs constants: only the recurrent
  // state carries credit back into the encoder.
  const size_t hd = static_cast<size_t>(model.config().hidden_dim);
  std::vector<double> dh(hd, 0.0), dc(hd, 0.0);
  for (size_t t = pass.decoder_steps.size(); t-- > 0;) {
    std::vector<double> dh_readout;
    LinearBackward(model.readout(), params, pass.decoder_h[t], dout[t], grad,
                   &dh_readout);
    for (size_t k = 0; k < hd; ++k) dh[k] += dh_readout[k];
    LstmBackward(model.decoder(), params, pass.decoder_steps[t], dh, dc, grad);
  }
  for (size_t t = pass.encoder_steps.size(); t-- > 0;) {
    LstmBackward(model.encoder(), params, pass.encoder_steps[t], dh, dc, grad);
  }
  return loss;
}

/// One worker's forecast (core::RolloutPredict's row): normalizes the
/// recent km points onto `grid` (plus their time-of-day as a third input
/// when the model takes one), predicts, slides each predicted step into
/// the window and predicts again until `horizon_steps` points exist,
/// stamped now + i * step_period_min.
inline std::vector<geo::TimedPoint> RolloutPredict(
    const EncoderDecoder& model, const std::vector<double>& params,
    const std::vector<geo::Point>& recent_km, const geo::GridSpec& grid,
    int horizon_steps, double now_min, double step_period_min) {
  const int input_dim = model.config().input_dim;
  TAMP_CHECK(input_dim == 2 || input_dim == 3);
  auto time_of_day = [](double t_min) {
    return std::fmod(t_min, 1440.0) / 1440.0;
  };
  Sequence window;
  for (size_t i = 0; i < recent_km.size(); ++i) {
    const geo::Point n = grid.Normalize(recent_km[i]);
    const double t =
        now_min -
        static_cast<double>(recent_km.size() - 1 - i) * step_period_min;
    window.push_back({n.x, n.y});
    if (input_dim == 3) window.back().push_back(time_of_day(t));
  }
  std::vector<geo::TimedPoint> out;
  while (static_cast<int>(out.size()) < horizon_steps) {
    for (const std::vector<double>& step : Predict(model, params, window)) {
      if (static_cast<int>(out.size()) == horizon_steps) break;
      const double t =
          now_min + (static_cast<double>(out.size()) + 1.0) * step_period_min;
      out.push_back({grid.Denormalize({step[0], step[1]}), t});
      window.erase(window.begin());
      window.push_back({step[0], step[1]});
      if (input_dim == 3) window.back().push_back(time_of_day(t));
    }
  }
  return out;
}

}  // namespace tamp::nn::oracle
