#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace tamp::nn {

/// The parameter layout of one LSTM cell inside a caller-provided flat
/// vector (see Linear for the rationale). Gate order in the packed weight
/// blocks is [input, forget, candidate, output]. EncoderDecoder runs the
/// cell; this class only places it.
///
/// Layout at `offset`:
///   W_x  [4H x I]  row-major
///   W_h  [4H x H]  row-major
///   b    [4H]
class LstmCell {
 public:
  LstmCell(int input_dim, int hidden_dim, size_t offset);

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }
  size_t offset() const { return offset_; }
  size_t param_count() const {
    size_t h = static_cast<size_t>(hidden_dim_);
    size_t h4 = 4 * h;
    return h4 * static_cast<size_t>(input_dim_) + h4 * h + h4;
  }

  /// Xavier weights; forget-gate bias initialized to 1.
  void InitParams(Rng& rng, std::vector<double>& params) const;

 private:
  int input_dim_;
  int hidden_dim_;
  size_t offset_;
};

}  // namespace tamp::nn
