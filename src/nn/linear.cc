#include "nn/linear.h"

#include "common/check.h"
#include "nn/init.h"

namespace tamp::nn {

Linear::Linear(int in_dim, int out_dim, size_t offset)
    : in_dim_(in_dim), out_dim_(out_dim), offset_(offset) {
  TAMP_CHECK(in_dim > 0 && out_dim > 0);
}

void Linear::InitParams(Rng& rng, std::vector<double>& params) const {
  TAMP_CHECK(params.size() >= offset_ + param_count());
  size_t w_count = static_cast<size_t>(out_dim_) * static_cast<size_t>(in_dim_);
  XavierUniform(rng, params.data() + offset_, w_count, in_dim_, out_dim_);
  Fill(params.data() + offset_ + w_count, static_cast<size_t>(out_dim_), 0.0);
}

}  // namespace tamp::nn
