#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>

namespace dtmsv::nn {

MaxPool1D::MaxPool1D(std::size_t window) : window_(window) {
  DTMSV_EXPECTS(window > 0);
}

std::size_t MaxPool1D::output_length(std::size_t input_length) const {
  DTMSV_EXPECTS(input_length > 0);
  return (input_length + window_ - 1) / window_;
}

const Tensor& MaxPool1D::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 3, "MaxPool1D: input must be [N, C, L]");
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t len = input.dim(2);
  const std::size_t out_len = output_length(len);

  output_.resize({n, c, out_len});
  argmax_.resize(n * c * out_len);
  const float* in = input.data().data();
  float* op = output_.data().data();
  for (std::size_t row = 0; row < n * c; ++row) {
    const float* irow = in + row * len;
    float* orow = op + row * out_len;
    for (std::size_t t = 0; t < out_len; ++t) {
      const std::size_t start = t * window_;
      const std::size_t stop = std::min(start + window_, len);
      float best = -std::numeric_limits<float>::infinity();
      std::size_t best_idx = start;
      // Selects rather than branches: data-dependent maxima mispredict.
      for (std::size_t l = start; l < stop; ++l) {
        const bool greater = irow[l] > best;
        best = greater ? irow[l] : best;
        best_idx = greater ? l : best_idx;
      }
      orow[t] = best;
      argmax_[row * out_len + t] = row * len + best_idx;
    }
  }
  return output_;
}

const Tensor& MaxPool1D::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "MaxPool1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t c = input_shape_[1];
  const std::size_t len = input_shape_[2];
  const std::size_t out_len = output_length(len);
  DTMSV_EXPECTS(grad_output.rank() == 3 && grad_output.dim(0) == n &&
                grad_output.dim(1) == c && grad_output.dim(2) == out_len);

  grad_input_.resize(input_shape_);
  grad_input_.zero();
  auto gi = grad_input_.data();
  const auto go = grad_output.data();
  for (std::size_t i = 0; i < go.size(); ++i) {
    gi[argmax_[i]] += go[i];
  }
  return grad_input_;
}

const Tensor& GlobalAvgPool1D::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 3, "GlobalAvgPool1D: input must be [N, C, L]");
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t len = input.dim(2);

  output_.resize({n, c});
  const float* in = input.data().data();
  float* op = output_.data().data();
  for (std::size_t row = 0; row < n * c; ++row) {
    const float* irow = in + row * len;
    float acc = 0.0f;
    for (std::size_t l = 0; l < len; ++l) {
      acc += irow[l];
    }
    op[row] = acc / static_cast<float>(len);
  }
  return output_;
}

const Tensor& GlobalAvgPool1D::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "GlobalAvgPool1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t c = input_shape_[1];
  const std::size_t len = input_shape_[2];
  DTMSV_EXPECTS(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                grad_output.dim(1) == c);

  grad_input_.resize(input_shape_);
  const float scale = 1.0f / static_cast<float>(len);
  const float* go = grad_output.data().data();
  float* gi = grad_input_.data().data();
  for (std::size_t row = 0; row < n * c; ++row) {
    const float g = go[row] * scale;
    float* grow = gi + row * len;
    for (std::size_t l = 0; l < len; ++l) {
      grow[l] = g;
    }
  }
  return grad_input_;
}

const Tensor& Flatten::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() >= 2, "Flatten: input must be batched");
  input_shape_ = input.shape();
  output_.resize({input_shape_[0], input.size() / input_shape_[0]});
  std::copy(input.data().begin(), input.data().end(), output_.data().begin());
  return output_;
}

const Tensor& Flatten::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "Flatten: backward before forward");
  DTMSV_EXPECTS_MSG(grad_output.size() == output_.size(),
                    "Flatten: gradient does not match the flattened input");
  grad_input_.resize(input_shape_);
  std::copy(grad_output.data().begin(), grad_output.data().end(),
            grad_input_.data().begin());
  return grad_input_;
}

}  // namespace dtmsv::nn
