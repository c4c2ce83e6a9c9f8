#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm_cell.h"

namespace tamp::nn {

/// Architecture of the mobility prediction model (Section III-B
/// "Discussion"): an LSTM encoder over the seq_in observed locations, an
/// LSTM decoder rolled out for seq_out future steps, and a linear read-out
/// producing a location per decoder step.
struct Seq2SeqConfig {
  int input_dim = 2;    // (x, y), normalized into [0,1].
  int hidden_dim = 16;  // LSTM state width.
  int output_dim = 2;   // Predicted (x, y).
  int seq_out = 1;      // Number of future locations to emit.
};

/// Reusable buffers for the gradient-free forward passes. Without one,
/// Predict / EvalLoss allocate the recurrent state, decoder input, step
/// cache and (EvalLoss) the output sequence afresh on every call — pure
/// allocator traffic on the rollout and evaluation hot loops. Passing a
/// scratch (persisted across calls; shrink-then-grow safe) removes it;
/// results are bitwise identical with or without one.
struct PredictScratch {
  LstmStepCache cell;
  std::vector<double> h;
  std::vector<double> c;
  std::vector<double> dec_input;
  Sequence outputs;  // EvalLoss's prediction buffer.
};

/// LSTM-Encoder-Decoder mobility prediction model with hand-written
/// backpropagation-through-time.
///
/// The model is *stateless*: all weights live in a flat caller-owned
/// std::vector<double> whose layout this class defines. This makes the
/// meta-learning algorithms (MAML / TAML) plain vector arithmetic: clone the
/// vector, adapt it with Sgd, compute a query gradient against it. Gradients
/// produced here are exact (validated against finite differences in
/// tests/nn_gradient_check_test.cc).
class EncoderDecoder {
 public:
  explicit EncoderDecoder(const Seq2SeqConfig& config);

  const Seq2SeqConfig& config() const { return config_; }
  size_t param_count() const { return param_count_; }

  /// Freshly initialized parameter vector (Xavier weights, forget bias 1).
  std::vector<double> InitParams(Rng& rng) const;

  /// Autoregressive inference: encodes `input_seq` (>= 1 steps of
  /// input_dim values) and decodes config().seq_out future points, feeding
  /// each prediction back as the next decoder input. `scratch` (optional)
  /// reuses buffers across calls.
  Sequence Predict(const std::vector<double>& params,
                   const Sequence& input_seq,
                   PredictScratch* scratch = nullptr) const;

  /// Teacher-forced training pass on one (input, target) sample: runs the
  /// forward pass, computes the weighted MSE (Eq. 6; empty `step_weights`
  /// means plain MSE), and *accumulates* dLoss/dparams into `grad` (which
  /// must be param_count() long). Returns the loss value. Training runs
  /// BatchedSeq2Seq::TrainTile, which is bitwise equal to this chain
  /// sample by sample; this scalar chain is its oracle (tests and
  /// bench_micro_nn).
  double LossAndGradient(const std::vector<double>& params,
                         const Sequence& input_seq, const Sequence& target_seq,
                         const std::vector<double>& step_weights,
                         std::vector<double>& grad) const;

  /// Loss of the autoregressive prediction against the target (no
  /// gradient); used for held-out evaluation. With a `scratch` the call is
  /// allocation-free (the prediction lands in scratch->outputs).
  double EvalLoss(const std::vector<double>& params, const Sequence& input_seq,
                  const Sequence& target_seq,
                  const std::vector<double>& step_weights,
                  PredictScratch* scratch = nullptr) const;

 private:
  /// Shared forward machinery. When `teacher_targets` is non-null the
  /// decoder consumes ground-truth previous locations (training); otherwise
  /// it consumes its own predictions (inference). Caches are filled only
  /// when `enc_caches`/`dec_caches` are non-null. Predictions land in
  /// `*outputs` (resized to seq_out); `scratch` (optional) supplies the
  /// recurrent-state / decoder-input / step-cache buffers.
  void RunForward(const std::vector<double>& params,
                  const Sequence& input_seq, const Sequence* teacher_targets,
                  std::vector<LstmStepCache>* enc_caches,
                  std::vector<LstmStepCache>* dec_caches,
                  std::vector<std::vector<double>>* dec_hidden,
                  Sequence* outputs, PredictScratch* scratch) const;

  Seq2SeqConfig config_;
  LstmCell encoder_;
  LstmCell decoder_;
  Linear readout_;
  size_t param_count_;
};

}  // namespace tamp::nn
