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
/// the scalar chain itself.
void RowTimesTile(double bias, const double* w1, const double* in1,
                  size_t n1, const double* w2, const double* in2, size_t n2,
                  size_t width, double* out) {
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

/// z = W_x x + W_h h_prev + b over one tile, gate blocks [i f g o], then
/// the element-wise gate update of h/c. One parameter vector serves the
/// whole tile, so every weight row is a GEMM row against the tile's
/// columns. Per column the accumulation chain is exactly
/// LstmCell::Forward's: b[r], then W_x row r in ascending k, then W_h row
/// r in ascending k.
void CellStep(const LstmCell& cell, const double* params, const double* x,
              size_t width, TileState& s) {
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  const size_t h4 = 4 * hd;
  const double* wx = params + cell.offset();
  const double* wh = wx + h4 * id;
  const double* b = wh + h4 * hd;
  double* z = s.z.data();
  double* h = s.h.data();
  double* c = s.c.data();
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
      h[k * width + col] = ov * std::tanh(cv);
    }
  }
}

/// Readout y = W h + b over one tile into `dst` [output_dim][width].
void ReadoutStep(const Linear& readout, const double* params,
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
      CellStep(encoder_, params,
               window + ((head + t) % in_steps) * id * width, width, s);
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
      CellStep(decoder_, params, x, width, s);
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

}  // namespace tamp::nn
