#include "nn/lstm_cell.h"

#include "common/check.h"
#include "nn/init.h"

namespace tamp::nn {

LstmCell::LstmCell(int input_dim, int hidden_dim, size_t offset)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), offset_(offset) {
  TAMP_CHECK(input_dim > 0 && hidden_dim > 0);
}

void LstmCell::InitParams(Rng& rng, std::vector<double>& params) const {
  TAMP_CHECK(params.size() >= offset_ + param_count());
  const size_t id = static_cast<size_t>(input_dim_);
  const size_t hd = static_cast<size_t>(hidden_dim_);
  const size_t h4 = 4 * hd;
  double* wx = params.data() + offset_;
  double* wh = wx + h4 * id;
  double* b = wh + h4 * hd;
  XavierUniform(rng, wx, h4 * id, input_dim_, hidden_dim_);
  XavierUniform(rng, wh, h4 * hd, hidden_dim_, hidden_dim_);
  Fill(b, h4, 0.0);
  // Forget-gate bias block (second of four) starts open.
  Fill(b + hd, hd, 1.0);
}

}  // namespace tamp::nn
