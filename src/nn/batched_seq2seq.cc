#include "nn/batched_seq2seq.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"

namespace tamp::nn {
namespace {

double Sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

/// One tile's recurrent state, every buffer with the tile width as stride.
/// A tile runs start to finish on one thread, so RunTile keeps one of
/// these per thread (grow-only thread_local): nothing in it is shared.
struct TileState {
  std::vector<double> window;  // Ring of seq_in steps [step][input_dim][w].
  std::vector<double> x;       // Decoder's first input [output_dim][w].
  std::vector<double> h;       // Hidden state [hidden][w].
  std::vector<double> c;       // Cell state [hidden][w].
  std::vector<double> z;       // Gate pre-activations [4 hidden][w].
  std::vector<double> pred;    // One pass's outputs [seq_out][output_dim][w].
};

/// Columns accumulated together in registers by RowTimesTile.
constexpr size_t kColBlock = 4;

/// One output row over a tile's columns: out[col] = bias + w1 . in1[:, col]
/// + w2 . in2[:, col], where in1/in2 are [n1]/[n2] x width feature-major
/// blocks. Per column the chain is exactly the scalar one — acc = bias,
/// then w1[k] * in1[k] in ascending k, then w2 — with kColBlock columns'
/// accumulators kept in registers and the weight element shared across
/// them; a 1-column tile runs the trailing single-column loop, which is
/// the scalar chain itself. `inline` (here and on ReadoutStep) keeps the
/// forecast's CellStep and RunTile inlining these as they did before the
/// training pass shared them: called out of line, porto's replay lost
/// ~6% tasks_per_s.
inline void RowTimesTile(double bias, const double* w1, const double* in1,
                         size_t n1, const double* w2, const double* in2,
                         size_t n2, size_t width, double* out) {
  size_t col = 0;
  for (; col + kColBlock <= width; col += kColBlock) {
    double acc[kColBlock];
    for (size_t j = 0; j < kColBlock; ++j) acc[j] = bias;
    for (size_t k = 0; k < n1; ++k) {
      const double w = w1[k];
      const double* src = in1 + k * width + col;
      for (size_t j = 0; j < kColBlock; ++j) acc[j] += w * src[j];
    }
    for (size_t k = 0; k < n2; ++k) {
      const double w = w2[k];
      const double* src = in2 + k * width + col;
      for (size_t j = 0; j < kColBlock; ++j) acc[j] += w * src[j];
    }
    for (size_t j = 0; j < kColBlock; ++j) out[col + j] = acc[j];
  }
  for (; col < width; ++col) {
    double acc = bias;
    for (size_t k = 0; k < n1; ++k) acc += w1[k] * in1[k * width + col];
    for (size_t k = 0; k < n2; ++k) acc += w2[k] * in2[k * width + col];
    out[col] = acc;
  }
}

/// out[col] = 0.0 + in[0][col] * w[0] + in[1][col] * w[stride] + ... over
/// a tile's columns, r ascending: one column of a row-major weight matrix
/// against an [n] x width block, i.e. a row of the backward's W^T dz.
/// Per column this is LstmCell::Backward's (and Linear::Backward's) input
/// gradient chain, blocked over columns like RowTimesTile.
void ColumnTimesTile(const double* w, size_t stride, const double* in,
                     size_t n, size_t width, double* out) {
  size_t col = 0;
  for (; col + kColBlock <= width; col += kColBlock) {
    double acc[kColBlock];
    for (size_t j = 0; j < kColBlock; ++j) acc[j] = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double wr = w[r * stride];
      const double* src = in + r * width + col;
      for (size_t j = 0; j < kColBlock; ++j) acc[j] += src[j] * wr;
    }
    for (size_t j = 0; j < kColBlock; ++j) out[col + j] = acc[j];
  }
  for (; col < width; ++col) {
    double acc = 0.0;
    for (size_t r = 0; r < n; ++r) acc += in[r * width + col] * w[r * stride];
    out[col] = acc;
  }
}

/// z = W_x x + W_h h_prev + b over one tile, gate blocks [i f g o], then
/// the element-wise gate update of the recurrent state h/c ([hidden] x
/// width, updated in place). One parameter vector serves the whole tile,
/// so every weight row is a GEMM row against the tile's columns. Per
/// column the accumulation chain is exactly LstmCell::Forward's: b[r],
/// then W_x row r in ascending k, then W_h row r in ascending k.
///
/// A training forward (kTrain) also keeps what its backward reads: z ends
/// holding the post-activation gates [i f g o] and `tanh_c` receives
/// tanh(c). The forecast's instantiation is the loop without those stores.
template <bool kTrain>
void CellStep(const LstmCell& cell, const double* params, const double* x,
              size_t width, double* z, double* h, double* c,
              double* tanh_c) {
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  const size_t h4 = 4 * hd;
  const double* wx = params + cell.offset();
  const double* wh = wx + h4 * id;
  const double* b = wh + h4 * hd;
  for (size_t r = 0; r < h4; ++r) {
    RowTimesTile(b[r], wx + r * id, x, id, wh + r * hd, h, hd, width,
                 z + r * width);
  }

  // Element-wise gate update (independent per (k, col) element, so any
  // loop order preserves bit-identity with the scalar path).
  for (size_t k = 0; k < hd; ++k) {
    for (size_t col = 0; col < width; ++col) {
      const double iv = Sigmoid(z[k * width + col]);
      const double fv = Sigmoid(z[(hd + k) * width + col]);
      const double gv = std::tanh(z[(2 * hd + k) * width + col]);
      const double ov = Sigmoid(z[(3 * hd + k) * width + col]);
      const double cv = fv * c[k * width + col] + iv * gv;
      c[k * width + col] = cv;
      if constexpr (kTrain) {
        const double tc = std::tanh(cv);
        h[k * width + col] = ov * tc;
        z[k * width + col] = iv;
        z[(hd + k) * width + col] = fv;
        z[(2 * hd + k) * width + col] = gv;
        z[(3 * hd + k) * width + col] = ov;
        tanh_c[k * width + col] = tc;
      } else {
        h[k * width + col] = ov * std::tanh(cv);
      }
    }
  }
}

/// LstmCell::Backward's element-wise part over one tile: from dh and dc
/// (the gradients w.r.t. the step's outputs) and the step's kept gates,
/// tanh(c) and c_prev, writes dz over the gates (blocks [i f g o]) and
/// replaces dc with the gradient w.r.t. c_prev. The expressions are the
/// scalar ones, term for term.
void GateBackward(size_t hd, size_t width, const double* dh, double* dc,
                  double* gates, const double* tanh_c, const double* c_prev) {
  const size_t block = hd * width;
  for (size_t e = 0; e < block; ++e) {
    const double i = gates[e], f = gates[block + e];
    const double g = gates[2 * block + e], o = gates[3 * block + e];
    const double tc = tanh_c[e];
    const double d_o = dh[e] * tc;
    const double d_c = dc[e] + dh[e] * o * (1.0 - tc * tc);
    const double d_i = d_c * g;
    const double d_f = d_c * c_prev[e];
    const double d_g = d_c * i;
    gates[e] = d_i * i * (1.0 - i);
    gates[block + e] = d_f * f * (1.0 - f);
    gates[2 * block + e] = d_g * (1.0 - g * g);
    gates[3 * block + e] = d_o * o * (1.0 - o);
    dc[e] = d_c * f;
  }
}

/// kWeights consecutive weights of one gate row: for each weight k,
/// g[k] += (0.0 + a_T[j] * b_T[k][j] + ... + a_0[j] * b_0[k][j]) * inv
/// for every column (= sample) j in order, where a_t = a + t * a_step is
/// the row's dz (or dy) at step t and b_t = b + t * b_step the layer input
/// [.][width] at that step; a null `b` is an input of ones (the bias).
/// Each sum runs over the steps last first, as the scalar backward adds
/// its terms, and is complete before it joins g. Columns go in blocks of
/// kColBlock whose sums share registers, then one by one, like
/// RowTimesTile; the kWeights serial additions into g overlap.
template <size_t kWeights>
void StepSums(const double* a, size_t a_step, const double* b, size_t b_step,
              size_t steps, size_t width, double inv, double* g) {
  double sum[kWeights];
  for (size_t p = 0; p < kWeights; ++p) sum[p] = g[p];
  size_t j = 0;
  for (; j + kColBlock <= width; j += kColBlock) {
    double acc[kWeights][kColBlock] = {};
    for (size_t t = steps; t-- > 0;) {
      const double* at = a + t * a_step + j;
      for (size_t p = 0; p < kWeights; ++p) {
        if (b == nullptr) {
          for (size_t c = 0; c < kColBlock; ++c) acc[p][c] += at[c];
        } else {
          const double* bt = b + t * b_step + p * width + j;
          for (size_t c = 0; c < kColBlock; ++c) acc[p][c] += at[c] * bt[c];
        }
      }
    }
    for (size_t c = 0; c < kColBlock; ++c) {
      for (size_t p = 0; p < kWeights; ++p) sum[p] += acc[p][c] * inv;
    }
  }
  for (; j < width; ++j) {
    double acc[kWeights] = {};
    for (size_t t = steps; t-- > 0;) {
      const double at = a[t * a_step + j];
      for (size_t p = 0; p < kWeights; ++p) {
        acc[p] += b == nullptr ? at : at * b[t * b_step + p * width + j];
      }
    }
    for (size_t p = 0; p < kWeights; ++p) sum[p] += acc[p] * inv;
  }
  for (size_t p = 0; p < kWeights; ++p) g[p] = sum[p];
}

/// StepSums over a gate row's m weights (b's first m rows), two at a time.
void RowSums(const double* a, size_t a_step, const double* b, size_t b_step,
             size_t m, size_t steps, size_t width, double inv, double* g) {
  size_t k = 0;
  for (; k + 2 <= m; k += 2) {
    StepSums<2>(a, a_step, b + k * width, b_step, steps, width, inv, g + k);
  }
  if (k < m) {
    StepSums<1>(a, a_step, b + k * width, b_step, steps, width, inv, g + k);
  }
}

/// Readout y = W h + b over one tile into `dst` [output_dim][width].
inline void ReadoutStep(const Linear& readout, const double* params,
                        const double* h, size_t width, double* dst) {
  const size_t in = static_cast<size_t>(readout.in_dim());
  const size_t out = static_cast<size_t>(readout.out_dim());
  const double* w = params + readout.offset();
  const double* b = w + out * in;
  for (size_t r = 0; r < out; ++r) {
    RowTimesTile(b[r], w + r * in, h, in, nullptr, nullptr, 0, width,
                 dst + r * width);
  }
}

}  // namespace

BatchedSeq2Seq::BatchedSeq2Seq(const Seq2SeqConfig& config)
    : config_(config),
      encoder_(config.input_dim, config.hidden_dim, /*offset=*/0),
      decoder_(config.output_dim, config.hidden_dim, encoder_.param_count()),
      readout_(config.hidden_dim, config.output_dim,
               encoder_.param_count() + decoder_.param_count()),
      param_count_(encoder_.param_count() + decoder_.param_count() +
                   readout_.param_count()) {
  TAMP_CHECK(config.seq_out >= 1);
}

void BatchedSeq2Seq::PlanBatch(
    const std::vector<const std::vector<double>*>& row_params,
    BatchedSeq2SeqScratch& scratch) const {
  const size_t rows = row_params.size();
  // Group rows by parameter-vector identity in first-occurrence order (the
  // map is a lookup table only — the deterministic order lives in
  // group_rows). Identity, not value: two equal vectors at different
  // addresses stay separate groups, which only costs GEMM-ness, never
  // correctness.
  scratch.group_index.clear();
  size_t n_groups = 0;
  for (size_t r = 0; r < rows; ++r) {
    TAMP_CHECK(row_params[r] != nullptr);
    TAMP_CHECK(row_params[r]->size() == param_count_);
    auto [it, inserted] = scratch.group_index.try_emplace(row_params[r],
                                                          n_groups);
    if (inserted) {
      if (scratch.group_rows.size() <= n_groups) {
        scratch.group_rows.emplace_back();
      }
      scratch.group_rows[n_groups].clear();
      ++n_groups;
    }
    scratch.group_rows[it->second].push_back(static_cast<int>(r));
  }

  // Lay the groups out as consecutive columns and chunk each group into
  // tiles of at most kTileCols columns; a singleton is a 1-column tile.
  scratch.col_row.clear();
  scratch.tiles.clear();
  for (size_t g = 0; g < n_groups; ++g) {
    const std::vector<int>& members = scratch.group_rows[g];
    const std::vector<double>* params =
        row_params[static_cast<size_t>(members[0])];
    const size_t group_begin = scratch.col_row.size();
    scratch.col_row.insert(scratch.col_row.end(), members.begin(),
                           members.end());
    const size_t group_end = scratch.col_row.size();
    for (size_t b = group_begin; b < group_end; b += kTileCols) {
      scratch.tiles.push_back({b, std::min(group_end, b + kTileCols), params});
    }
  }
  TAMP_CHECK(scratch.col_row.size() == rows);
}

void BatchedSeq2Seq::RunTile(const BatchedSeq2SeqScratch::Tile& tile,
                             size_t rows, int seq_in, const double* inputs,
                             int horizon, const double* step_features,
                             BatchedSeq2SeqScratch& scratch) const {
  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t in_steps = static_cast<size_t>(seq_in);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  const size_t steps = static_cast<size_t>(horizon);
  const size_t width = tile.end - tile.begin;
  const double* params = tile.params->data();
  const int* col_row = scratch.col_row.data() + tile.begin;

  thread_local TileState s;
  s.window.resize(in_steps * id * width);
  s.x.resize(od * width);
  s.h.resize(hd * width);
  s.c.resize(hd * width);
  s.z.resize(4 * hd * width);
  s.pred.resize(seq_out * od * width);
  double* window = s.window.data();

  // Gather the tile's windows out of the caller's row order.
  for (size_t f = 0; f < in_steps * id; ++f) {
    const double* src = inputs + f * rows;
    double* dst = window + f * width;
    for (size_t j = 0; j < width; ++j) {
      dst[j] = src[static_cast<size_t>(col_row[j])];
    }
  }

  double* out = scratch.out.data() + tile.begin * steps * od;
  const size_t fed = std::min(id, od);         // Predictions fed back.
  const size_t extra = id > od ? id - od : 0;  // Step features per step.
  size_t head = 0;  // Ring slot of the window's oldest step.
  size_t produced = 0;
  while (produced < steps) {
    std::fill(s.h.begin(), s.h.end(), 0.0);
    std::fill(s.c.begin(), s.c.end(), 0.0);
    for (size_t t = 0; t < in_steps; ++t) {
      CellStep<false>(encoder_, params,
                      window + ((head + t) % in_steps) * id * width, width,
                      s.z.data(), s.h.data(), s.c.data(), nullptr);
    }

    // Decoder: the first input is the last observed step resized to
    // output_dim (truncate or zero-pad, like EncoderDecoder::RunForward);
    // later inputs are the previous prediction.
    const double* last =
        window + ((head + in_steps - 1) % in_steps) * id * width;
    for (size_t k = 0; k < od; ++k) {
      double* xk = s.x.data() + k * width;
      if (k < id) {
        std::copy(last + k * width, last + (k + 1) * width, xk);
      } else {
        std::fill(xk, xk + width, 0.0);
      }
    }
    for (size_t t = 0; t < seq_out; ++t) {
      const double* x =
          t == 0 ? s.x.data() : s.pred.data() + (t - 1) * od * width;
      CellStep<false>(decoder_, params, x, width, s.z.data(), s.h.data(),
                      s.c.data(), nullptr);
      ReadoutStep(readout_, params, s.h.data(), width,
                  s.pred.data() + t * od * width);
    }

    // Emit the pass's steps. When another pass follows, each produced step
    // also slides the window: it overwrites the oldest slot (the
    // prediction, then its step features) and becomes the newest.
    const bool feed_back = produced + seq_out < steps;
    for (size_t t = 0; t < seq_out && produced < steps; ++t, ++produced) {
      const double* p = s.pred.data() + t * od * width;
      std::copy(p, p + od * width, out + produced * od * width);
      if (!feed_back) continue;
      double* slot = window + head * id * width;
      std::copy(p, p + fed * width, slot);
      for (size_t e = 0; e < extra; ++e) {
        std::fill(slot + (od + e) * width, slot + (od + e + 1) * width,
                  step_features[produced * extra + e]);
      }
      head = (head + 1) % in_steps;
    }
  }
}

void BatchedSeq2Seq::Rollout(
    const std::vector<const std::vector<double>*>& row_params, int seq_in,
    const double* inputs, int horizon, const double* step_features,
    double* outputs, BatchedSeq2SeqScratch& scratch) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& cells_counter =
      registry.GetCounter("nn.forecast_cells");
  static obs::Counter& gemm_counter =
      registry.GetCounter("nn.batched_gemm_calls");
  static obs::Counter& rows_counter = registry.GetCounter("nn.batch_rows");

  const size_t rows = row_params.size();
  if (rows == 0) return;
  TAMP_CHECK(seq_in >= 1);
  TAMP_CHECK(horizon >= 1);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  const size_t steps = static_cast<size_t>(horizon);
  const size_t passes = (steps + seq_out - 1) / seq_out;
  TAMP_CHECK_MSG(passes == 1 || config_.input_dim <= config_.output_dim ||
                     step_features != nullptr,
                 "a multi-pass rollout needs the fed-back steps' features");
  PlanBatch(row_params, scratch);
  scratch.out.resize(steps * od * rows);

  // Deterministic work accounting, centralized so the totals are exact and
  // thread-invariant: every pass costs each row (seq_in + seq_out) cell
  // steps (the scalar path's LstmCell::Forward call count), and each tile
  // one fused gate kernel per cell step plus one readout kernel per
  // decoder step.
  const size_t cell_steps = static_cast<size_t>(seq_in) + seq_out;
  cells_counter.Increment(static_cast<int64_t>(rows * passes * cell_steps));
  gemm_counter.Increment(static_cast<int64_t>(
      scratch.tiles.size() * passes * (cell_steps + seq_out)));
  rows_counter.Increment(static_cast<int64_t>(rows * passes));

  // One region for the whole rollout. Tiles run on tile-private state and
  // write disjoint blocks of scratch.out, so the fan-out is race-free and
  // the result thread-count independent.
  ParallelFor(scratch.tiles.size(), [&](size_t ti) {
    RunTile(scratch.tiles[ti], rows, seq_in, inputs, horizon, step_features,
            scratch);
  });

  // Scatter the tile-major blocks back to caller row order.
  for (const BatchedSeq2SeqScratch::Tile& tile : scratch.tiles) {
    const size_t width = tile.end - tile.begin;
    const double* block = scratch.out.data() + tile.begin * steps * od;
    const int* col_row = scratch.col_row.data() + tile.begin;
    for (size_t f = 0; f < steps * od; ++f) {
      double* dst = outputs + f * rows;
      const double* src = block + f * width;
      for (size_t j = 0; j < width; ++j) {
        dst[static_cast<size_t>(col_row[j])] = src[j];
      }
    }
  }
}

void BatchedSeq2Seq::PredictBatch(
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<const Sequence*>& inputs, std::vector<Sequence>* outputs,
    BatchedSeq2SeqScratch& scratch) const {
  TAMP_CHECK(outputs != nullptr);
  TAMP_CHECK(inputs.size() == row_params.size());
  const size_t rows = row_params.size();
  outputs->resize(rows);
  if (rows == 0) return;

  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  TAMP_CHECK(inputs[0] != nullptr && !inputs[0]->empty());
  const size_t seq_in = inputs[0]->size();
  for (size_t r = 0; r < rows; ++r) {
    TAMP_CHECK(inputs[r] != nullptr);
    TAMP_CHECK_MSG(inputs[r]->size() == seq_in,
                   "PredictBatch rows must share one input length");
    for (const std::vector<double>& step : *inputs[r]) {
      TAMP_CHECK(step.size() == id);
    }
  }

  scratch.pack_in.resize(seq_in * id * rows);
  scratch.pack_out.resize(seq_out * od * rows);
  for (size_t t = 0; t < seq_in; ++t) {
    for (size_t k = 0; k < id; ++k) {
      double* dst = scratch.pack_in.data() + (t * id + k) * rows;
      for (size_t r = 0; r < rows; ++r) dst[r] = (*inputs[r])[t][k];
    }
  }
  Forward(row_params, static_cast<int>(seq_in), scratch.pack_in.data(),
          scratch.pack_out.data(), scratch);
  for (size_t r = 0; r < rows; ++r) {
    Sequence& seq = (*outputs)[r];
    seq.resize(seq_out);
    for (size_t t = 0; t < seq_out; ++t) {
      seq[t].resize(od);
      for (size_t k = 0; k < od; ++k) {
        seq[t][k] = scratch.pack_out[(t * od + k) * rows + r];
      }
    }
  }
}

void BatchedSeq2Seq::TrainTile(const std::vector<double>& params,
                               std::span<const TrainSample> samples,
                               double inv, double& loss_sum,
                               std::vector<double>& grad,
                               TrainScratch& scratch) const {
  const size_t width = samples.size();
  TAMP_CHECK(width >= 1 && width <= kTrainTileCols);
  TAMP_CHECK(params.size() == param_count_);
  TAMP_CHECK(grad.size() == param_count_);
  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t h4 = 4 * hd;
  const size_t dec_steps = static_cast<size_t>(config_.seq_out);
  TAMP_CHECK(samples[0].input != nullptr && !samples[0].input->empty());
  const size_t enc_steps = samples[0].input->size();
  const size_t steps = enc_steps + dec_steps;
  // The scalar chain's checks, sample by sample.
  for (const TrainSample& sample : samples) {
    TAMP_CHECK(sample.input != nullptr && sample.target != nullptr);
    TAMP_CHECK_MSG(sample.input->size() == enc_steps,
                   "a training tile's samples must share one input length");
    for (const std::vector<double>& step : *sample.input) {
      TAMP_CHECK(step.size() == id);
    }
    TAMP_CHECK(sample.target->size() == dec_steps);
    for (const std::vector<double>& step : *sample.target) {
      TAMP_CHECK(step.size() == od);
    }
    TAMP_CHECK(sample.weights == nullptr || sample.weights->empty() ||
               sample.weights->size() == dec_steps);
  }

  // Step t's input block: input_dim rows at an encoder step, output_dim at
  // a decoder step.
  auto in_offset = [&](size_t t) {
    return (t < enc_steps ? t * id
                          : enc_steps * id + (t - enc_steps) * od) *
           width;
  };
  scratch.x.resize(in_offset(steps));
  scratch.h.resize((steps + 1) * hd * width);
  scratch.c.resize((steps + 1) * hd * width);
  scratch.gates.resize(steps * h4 * width);
  scratch.tanh_c.resize(steps * hd * width);
  scratch.out.resize(dec_steps * od * width);
  scratch.dh.resize(hd * width);
  scratch.dc.resize(hd * width);

  // Gather the step inputs. The decoder's first input is the last observed
  // step resized to output_dim (truncated or zero-padded, like
  // EncoderDecoder::RunForward); later ones are the previous target steps
  // (teacher forcing).
  for (size_t t = 0; t < steps; ++t) {
    const size_t n = t < enc_steps ? id : od;
    double* x = scratch.x.data() + in_offset(t);
    for (size_t j = 0; j < width; ++j) {
      const std::vector<double>& src =
          t < enc_steps    ? (*samples[j].input)[t]
          : t == enc_steps ? samples[j].input->back()
                           : (*samples[j].target)[t - enc_steps - 1];
      for (size_t k = 0; k < n; ++k) {
        x[k * width + j] = k < src.size() ? src[k] : 0.0;
      }
    }
  }

  // Forward. Each step runs in place on a copy of the state entering it,
  // so h and c keep every step's h_prev and c_prev.
  const double* p = params.data();
  const size_t state = hd * width;
  double* out = scratch.out.data();
  std::fill_n(scratch.h.data(), state, 0.0);
  std::fill_n(scratch.c.data(), state, 0.0);
  for (size_t t = 0; t < steps; ++t) {
    const bool decoder = t >= enc_steps;
    double* h = scratch.h.data() + (t + 1) * state;
    double* c = scratch.c.data() + (t + 1) * state;
    std::copy(h - state, h, h);
    std::copy(c - state, c, c);
    CellStep<true>(decoder ? decoder_ : encoder_, p,
                   scratch.x.data() + in_offset(t), width,
                   scratch.gates.data() + t * h4 * width, h, c,
                   scratch.tanh_c.data() + t * state);
    if (decoder) {
      ReadoutStep(readout_, p, h, width, out + (t - enc_steps) * od * width);
    }
  }

  // Loss and dLoss/dprediction per sample, in sample order: the terms of
  // WeightedMseLoss::Value and ::Gradient.
  const double terms = static_cast<double>(dec_steps * od);
  const double scale = 2.0 / terms;
  for (size_t j = 0; j < width; ++j) {
    const std::vector<double>* weights = samples[j].weights;
    const bool uniform = weights == nullptr || weights->empty();
    const Sequence& target = *samples[j].target;
    double acc = 0.0;
    for (size_t t = 0; t < dec_steps; ++t) {
      const double w = uniform ? 1.0 : (*weights)[t];
      for (size_t d = 0; d < od; ++d) {
        const double diff = out[(t * od + d) * width + j] - target[t][d];
        acc += w * diff * diff;
      }
    }
    loss_sum += TAMP_CHECK_FINITE(acc / terms);
    for (size_t t = 0; t < dec_steps; ++t) {
      const double w = uniform ? 1.0 : (*weights)[t];
      for (size_t d = 0; d < od; ++d) {
        double& y = out[(t * od + d) * width + j];
        y = TAMP_CHECK_FINITE(scale * w * (y - target[t][d]));
      }
    }
  }

  // Backward through the steps, last first. Teacher forcing makes the
  // decoder inputs constants, so only the recurrent state carries credit:
  // at a decoder step dh first gains the readout's input gradient (summed
  // from 0.0), then every step forms dz over its gates and, unless it is
  // the first step, dh_prev = W_h^T dz.
  double* dh = scratch.dh.data();
  double* dc = scratch.dc.data();
  std::fill_n(dh, state, 0.0);
  std::fill_n(dc, state, 0.0);
  const double* w_out = p + readout_.offset();
  for (size_t t = steps; t-- > 0;) {
    const bool decoder = t >= enc_steps;
    double* dz = scratch.gates.data() + t * h4 * width;
    if (decoder) {
      const double* dy = out + (t - enc_steps) * od * width;
      double row[kTrainTileCols];
      for (size_t k = 0; k < hd; ++k) {
        ColumnTimesTile(w_out + k, hd, dy, od, width, row);
        for (size_t j = 0; j < width; ++j) dh[k * width + j] += row[j];
      }
    }
    GateBackward(hd, width, dh, dc, dz, scratch.tanh_c.data() + t * state,
                 scratch.c.data() + t * state);
    if (t == 0) break;
    const LstmCell& cell = decoder ? decoder_ : encoder_;
    const double* wh = p + cell.offset() +
                       h4 * static_cast<size_t>(cell.input_dim());
    for (size_t k = 0; k < hd; ++k) {
      ColumnTimesTile(wh + k, hd, dz, h4, width, dh + k * width);
    }
  }

  // Parameter gradients: for each weight, each sample's sum over its
  // layer's steps, added * inv in sample order (StepSums).
  auto cell_gradients = [&](const LstmCell& cell, size_t t0, size_t t1) {
    const size_t n = static_cast<size_t>(cell.input_dim());
    double* gwx = grad.data() + cell.offset();
    double* gwh = gwx + h4 * n;
    double* gb = gwh + h4 * hd;
    const double* x = scratch.x.data() + in_offset(t0);
    const double* h_prev = scratch.h.data() + t0 * state;
    for (size_t r = 0; r < h4; ++r) {
      const double* dz = scratch.gates.data() + (t0 * h4 + r) * width;
      const size_t dz_step = h4 * width;
      RowSums(dz, dz_step, x, n * width, n, t1 - t0, width, inv, gwx + r * n);
      RowSums(dz, dz_step, h_prev, state, hd, t1 - t0, width, inv,
              gwh + r * hd);
      StepSums<1>(dz, dz_step, nullptr, 0, t1 - t0, width, inv, gb + r);
    }
  };
  cell_gradients(encoder_, 0, enc_steps);
  cell_gradients(decoder_, enc_steps, steps);
  // The readout's input at decoder step t is the h that step produced.
  double* gw = grad.data() + readout_.offset();
  double* gb = gw + od * hd;
  const double* h_out = scratch.h.data() + (enc_steps + 1) * state;
  for (size_t r = 0; r < od; ++r) {
    const double* dy = out + r * width;
    RowSums(dy, od * width, h_out, state, hd, dec_steps, width, inv,
            gw + r * hd);
    StepSums<1>(dy, od * width, nullptr, 0, dec_steps, width, inv, gb + r);
  }
}

}  // namespace tamp::nn
