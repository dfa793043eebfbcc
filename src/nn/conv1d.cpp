#include "nn/conv1d.hpp"

#include <algorithm>
#include <vector>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace dtmsv::nn {

namespace {

using Backend = util::simd::default_backend;

// Batch elements per parallel chunk: enough multiply-adds that dispatch
// overhead stays small (the same threshold the Tensor matmuls use).
constexpr std::size_t kParallelFlops = 1u << 17;

std::size_t item_grain(std::size_t per_item_flops) {
  return std::max<std::size_t>(1, kParallelFlops / std::max<std::size_t>(1, per_item_flops));
}

}  // namespace

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               util::Rng& rng, std::size_t stride, std::size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      w_({out_channels, in_channels, kernel}),
      b_({out_channels}),
      w_grad_({out_channels, in_channels, kernel}),
      b_grad_({out_channels}) {
  DTMSV_EXPECTS(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
  xavier_uniform(w_, in_channels * kernel, out_channels * kernel, rng);
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  const std::size_t padded = input_length + 2 * padding_;
  DTMSV_EXPECTS_MSG(padded >= kernel_, "Conv1D: input shorter than kernel");
  return (padded - kernel_) / stride_ + 1;
}

const Tensor& Conv1D::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 3 && input.dim(1) == in_channels_,
                    "Conv1D: input must be [N, in_channels, L]");
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t len = input.dim(2);
  const std::size_t out_len = output_length(len);
  const std::size_t patch = in_channels_ * kernel_;
  cols_.resize({n, patch, out_len});
  output_.resize({n, out_channels_, out_len});

  const float* in = input.data().data();
  const float* w = w_.data().data();
  const float* bias = b_.data().data();
  float* cols = cols_.data().data();
  float* out = output_.data().data();
  util::parallel_for(0, n, item_grain(out_channels_ * patch * out_len),
                     [&](std::size_t b0, std::size_t b1) {
    // One zero-padded input row at a time (the padding stays zero), so
    // every im2col row is a plain shifted copy of it (a strided gather when
    // stride > 1): row (c, k) holds padded[t*stride + k] for every t.
    thread_local std::vector<float> padded;
    padded.assign(len + 2 * padding_, 0.0f);
    for (std::size_t b = b0; b < b1; ++b) {
      float* cb = cols + b * patch * out_len;
      for (std::size_t c = 0; c < in_channels_; ++c) {
        util::simd::copy_row<Backend>(padded.data() + padding_,
                                      in + (b * in_channels_ + c) * len, len);
        for (std::size_t k = 0; k < kernel_; ++k) {
          float* row = cb + (c * kernel_ + k) * out_len;
          const float* src = padded.data() + k;
          if (stride_ == 1) {
            util::simd::copy_row<Backend>(row, src, out_len);
          } else {
            for (std::size_t t = 0; t < out_len; ++t) {
              row[t] = src[t * stride_];
            }
          }
        }
      }
      // [F, patch] · [patch, L_out] straight into this element's
      // [F, L_out] slice, then the bias.
      float* ob = out + b * out_channels_ * out_len;
      std::fill(ob, ob + out_channels_ * out_len, 0.0f);
      kernels::matmul_rows<Backend>(w, cb, ob, 0, out_channels_, patch, out_len);
      for (std::size_t f = 0; f < out_channels_; ++f) {
        float* orow = ob + f * out_len;
        const float bf = bias[f];
        for (std::size_t t = 0; t < out_len; ++t) {
          orow[t] += bf;
        }
      }
    }
  });
  return output_;
}

const Tensor& Conv1D::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "Conv1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t len = input_shape_[2];
  const std::size_t out_len = output_length(len);
  DTMSV_EXPECTS(grad_output.rank() == 3 && grad_output.dim(0) == n &&
                grad_output.dim(1) == out_channels_ && grad_output.dim(2) == out_len);
  const std::size_t patch = in_channels_ * kernel_;
  const float* g = grad_output.data().data();
  const float* w = w_.data().data();
  const float* cols = cols_.data().data();

  // Bias and weight gradients, accumulated over batch elements in order.
  // Each element's [F, L_out] gradient is transposed into a small tile
  // (reducing the bias on the way), so that dL/dWᵀ += cols_b · tile runs
  // on the vector kernel with filters as lanes: every weight gradient is
  // one ascending-(b, t) chain.
  grad_t_.resize({out_len, out_channels_});
  w_grad_t_.resize({patch, out_channels_});
  w_grad_t_.zero();
  float* gt = grad_t_.data().data();
  float* wgt = w_grad_t_.data().data();
  float* bg = b_grad_.data().data();
  for (std::size_t b = 0; b < n; ++b) {
    const float* gb = g + b * out_channels_ * out_len;
    for (std::size_t f = 0; f < out_channels_; ++f) {
      const float* grow = gb + f * out_len;
      float acc = 0.0f;
      for (std::size_t t = 0; t < out_len; ++t) {
        gt[t * out_channels_ + f] = grow[t];
        acc += grow[t];
      }
      bg[f] += acc;
    }
    kernels::matmul_rows<Backend>(cols + b * patch * out_len, gt, wgt, 0, patch,
                                  out_len, out_channels_);
  }
  float* wg = w_grad_.data().data();
  for (std::size_t f = 0; f < out_channels_; ++f) {
    for (std::size_t kk = 0; kk < patch; ++kk) {
      wg[f * patch + kk] += wgt[kk * out_channels_ + f];
    }
  }

  // Input gradient: dcols_b = Wᵀ · g_b, then col2im adds each (c, k) row
  // back at its shift into a zero-padded row and keeps the unpadded part.
  // Taps run in descending k, so every input position receives its
  // contributions in ascending output position t.
  grad_input_.resize(input_shape_);
  float* gi = grad_input_.data().data();
  util::parallel_for(0, n, item_grain(out_channels_ * patch * out_len),
                     [&](std::size_t b0, std::size_t b1) {
    // One element's dL/dcols and one padded row at a time, in scratch the
    // running thread keeps.
    thread_local std::vector<float> dcols;
    thread_local std::vector<float> padded;
    dcols.resize(patch * out_len);
    padded.resize(len + 2 * padding_);
    float* db = dcols.data();
    for (std::size_t b = b0; b < b1; ++b) {
      std::fill(db, db + patch * out_len, 0.0f);
      kernels::matmul_at_rows<Backend>(w, g + b * out_channels_ * out_len, db, 0,
                                       patch, out_channels_, patch, out_len);
      for (std::size_t c = 0; c < in_channels_; ++c) {
        std::fill(padded.begin(), padded.end(), 0.0f);
        for (std::size_t k = kernel_; k-- > 0;) {
          const float* row = db + (c * kernel_ + k) * out_len;
          float* dst = padded.data() + k;
          if (stride_ == 1) {
            util::simd::add_rows<Backend>(dst, row, out_len);
          } else {
            for (std::size_t t = 0; t < out_len; ++t) {
              dst[t * stride_] += row[t];
            }
          }
        }
        util::simd::copy_row<Backend>(gi + (b * in_channels_ + c) * len,
                                      padded.data() + padding_, len);
      }
    }
  });
  return grad_input_;
}

std::vector<ParamRef> Conv1D::parameters() {
  return {{&w_, &w_grad_, "weight"}, {&b_, &b_grad_, "bias"}};
}

}  // namespace dtmsv::nn
