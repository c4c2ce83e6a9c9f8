#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "nn/encoder_decoder.h"

namespace tamp::nn {

/// One training sample as BatchedSeq2Seq::TrainTile reads it: the input
/// window, the seq_out target steps, and the per-step loss weights of
/// Eq. 6 (null or empty: uniform, i.e. plain MSE).
struct TrainSample {
  const Sequence* input = nullptr;
  const Sequence* target = nullptr;
  const std::vector<double>* weights = nullptr;
};

/// Grow-only buffers of BatchedSeq2Seq::TrainTile, one per thread
/// (DESIGN.md §4i gives the bytes). Every call overwrites what it reads,
/// so contents never reach a result and a scratch that shrinks and then
/// grows is bit-safe. Every block is feature-major with the tile width w
/// as stride; a per-step block holds step t's slot at t times one step's
/// size.
struct TrainScratch {
  std::vector<double> x;  // Step inputs: [input_dim][w] per encoder step,
                          // then [output_dim][w] per decoder step (the
                          // teacher-forced inputs).
  std::vector<double> h;  // Hidden state entering each step, then the
                          // last: [steps + 1][hidden][w].
  std::vector<double> c;  // Cell state, the same layout.
  std::vector<double> gates;   // [steps][4 hidden][w]: post-activation gates
                               // i f g o, replaced by dz in the backward.
  std::vector<double> tanh_c;  // [steps][hidden][w].
  std::vector<double> out;  // Predictions [seq_out][output_dim][w],
                            // replaced by dLoss/dprediction.
  std::vector<double> dh;   // [hidden][w].
  std::vector<double> dc;   // [hidden][w].
};

/// Reusable state for BatchedSeq2Seq (DESIGN.md §4i). Grow-only: holding
/// one scratch across batches (the simulator keeps one for the whole run)
/// amortizes every buffer here.
/// Contents never influence results — each call fully overwrites what it
/// reads — so reuse is bit-safe by construction. The recurrent state of a
/// tile is not here: it is tile-private (see BatchedSeq2Seq::Rollout).
struct BatchedSeq2SeqScratch {
  /// One contiguous column range of a single parameter group, at most
  /// kTileCols wide. A singleton group is a 1-column tile.
  struct Tile {
    size_t begin = 0;
    size_t end = 0;
    const std::vector<double>* params = nullptr;
  };

  // Batch plan, rebuilt by every call.
  std::vector<int> col_row;  // column -> caller row index.
  std::vector<Tile> tiles;
  // Grouping helpers (the map is lookup-only, never iterated).
  std::unordered_map<const std::vector<double>*, size_t> group_index;
  std::vector<std::vector<int>> group_rows;

  /// Tile-major outputs: the tile over columns [begin, end) owns the
  /// contiguous block at begin * horizon * output_dim, laid out
  /// [step][feature][end - begin]. Scattered to caller row order after the
  /// region.
  std::vector<double> out;

  // PredictBatch packing buffers.
  std::vector<double> pack_in;
  std::vector<double> pack_out;
};

/// Fleet-batched LSTM encoder-decoder inference over the EncoderDecoder
/// parameter layout: runs every row's (= worker's / sample's) encode and
/// decode as one fused gate kernel per timestep per column tile instead of
/// one scalar LstmCell::Forward chain per row.
///
/// Rows are grouped by parameter-vector identity (first-occurrence order,
/// deterministic) and every group is chunked into tiles of at most
/// kTileCols columns. Within a tile the weights are shared, so each gate
/// kernel is a GEMM with the weight element a loop invariant across the
/// tile's columns (`r-k-col` order); a singleton group — every fine-tuned
/// worker — is a 1-column tile, for which that loop order is the scalar
/// chain itself. Tiles are one fan-out: each runs its whole autoregressive
/// rollout on tile-private state whose stride is the tile width, so no two
/// threads write neighbouring columns of a shared array. The tile plan is a
/// pure function of the row->params map, so the nn.* work counters are
/// thread-invariant. TrainTile runs the teacher-forced training pass on the
/// same kernels (DESIGN.md §4i, "Training on the engine").
///
/// Bit-identity contract: for every output element the floating-point
/// operation chain is exactly the scalar path's — acc starts at b[r],
/// accumulates W_x row r against the input in ascending k, then W_h row r
/// against h_prev in ascending k; gates apply the same Sigmoid/tanh
/// element-wise. Batching only interchanges loops *across* independent
/// elements, so predictions are bitwise identical to
/// EncoderDecoder::Predict and core::RolloutPredict (asserted by
/// tests/nn_batched_forecast_test.cc at 1 to 8 threads).
class BatchedSeq2Seq {
 public:
  explicit BatchedSeq2Seq(const Seq2SeqConfig& config);

  const Seq2SeqConfig& config() const { return config_; }
  size_t param_count() const { return param_count_; }

  /// Widest tile. Fixed (not derived from the thread count) so the
  /// deterministic work counters gate exact values in the bench JSON;
  /// only a shared parameter group of more than one row fills more than
  /// one column.
  static constexpr size_t kTileCols = 64;

  /// Autoregressive batched rollout of `horizon` predicted steps per row,
  /// in one ParallelFor over the tiles. Each pass encodes a row's
  /// seq_in-step window and decodes seq_out steps; before the next pass
  /// every produced step is appended to the window and its oldest step is
  /// dropped. The appended step is the prediction's first
  /// min(input_dim, output_dim) features followed by `step_features` for
  /// that step: [horizon][input_dim - output_dim], shared by every row
  /// (the rollout's time-of-day), and may be null when a single pass
  /// covers the horizon or input_dim <= output_dim.
  ///
  /// `row_params[r]` is row r's full parameter vector (EncoderDecoder
  /// layout, param_count() long). `inputs` is caller-row-ordered SoA
  /// [seq_in][input_dim][R]; `outputs` (caller-allocated,
  /// [horizon][output_dim][R]) receives the predicted steps. Increments
  /// nn.forecast_cells / nn.batched_gemm_calls / nn.batch_rows once per
  /// pass, so a rollout counts exactly what ceil(horizon / seq_out)
  /// one-pass calls would.
  void Rollout(const std::vector<const std::vector<double>*>& row_params,
               int seq_in, const double* inputs, int horizon,
               const double* step_features, double* outputs,
               BatchedSeq2SeqScratch& scratch) const;

  /// One encode+decode pass: Rollout with horizon = seq_out. `outputs` is
  /// [seq_out][output_dim][R].
  void Forward(const std::vector<const std::vector<double>*>& row_params,
               int seq_in, const double* inputs, double* outputs,
               BatchedSeq2SeqScratch& scratch) const {
    Rollout(row_params, seq_in, inputs, config_.seq_out,
            /*step_features=*/nullptr, outputs, scratch);
  }

  /// Sequence-level convenience wrapper over Forward for callers holding
  /// per-row nn::Sequence inputs (meta evaluation, tests). All inputs must
  /// share one length. `(*outputs)[r]` is bitwise identical to
  /// EncoderDecoder::Predict(*row_params[r], *inputs[r]).
  void PredictBatch(const std::vector<const std::vector<double>*>& row_params,
                    const std::vector<const Sequence*>& inputs,
                    std::vector<Sequence>* outputs,
                    BatchedSeq2SeqScratch& scratch) const;

  /// Widest training tile. A tile's scratch grows with its width; at the
  /// e2e shape (hidden 16, six cell steps) 16 columns take ~97 KB per
  /// thread, 64 would take ~387 KB.
  static constexpr size_t kTrainTileCols = 16;

  /// Teacher-forced training pass (EncoderDecoder::LossAndGradient's) over
  /// one tile: 1 to kTrainTileCols samples that share `params` and one
  /// input length, run on the calling thread. In sample order, adds each
  /// sample's weighted-MSE loss (Eq. 6) to `loss_sum` and each of its
  /// parameter gradients times `inv` to `grad`. Touches no nn.* counter:
  /// those count the forecast's work.
  ///
  /// Bit-identity contract with the scalar chain: the forward runs the
  /// forecast's CellStep/RowTimesTile kernels (per column exactly
  /// LstmCell::Forward's chain); the backward forms dz with
  /// LstmCell::Backward's expressions and dh_prev = W_h^T dz from 0.0 with
  /// the gate row r ascending; and each sample's parameter-gradient sum
  /// starts at 0.0 and runs over its layer's steps in descending order
  /// before it is added * inv. So `loss_sum` and `grad` end bitwise equal
  /// to adding EncoderDecoder::LossAndGradient's loss and (zero-started)
  /// gradient * inv sample by sample, whatever the tile boundaries.
  void TrainTile(const std::vector<double>& params,
                 std::span<const TrainSample> samples, double inv,
                 double& loss_sum, std::vector<double>& grad,
                 TrainScratch& scratch) const;

 private:
  void PlanBatch(const std::vector<const std::vector<double>*>& row_params,
                 BatchedSeq2SeqScratch& scratch) const;

  /// Runs one tile's whole rollout on the calling thread's tile-private
  /// state and writes its [horizon][output_dim][width] block of
  /// scratch.out. Reads only the caller's inputs and the plan.
  void RunTile(const BatchedSeq2SeqScratch::Tile& tile, size_t rows,
               int seq_in, const double* inputs, int horizon,
               const double* step_features,
               BatchedSeq2SeqScratch& scratch) const;

  Seq2SeqConfig config_;
  LstmCell encoder_;
  LstmCell decoder_;
  Linear readout_;
  size_t param_count_;
};

}  // namespace tamp::nn
