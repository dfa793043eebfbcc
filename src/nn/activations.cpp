#include "nn/activations.hpp"

#include <cmath>

namespace dtmsv::nn {

const Tensor& ReLU::forward(const Tensor& input) {
  output_.resize(input.shape());
  const auto in = input.data();
  auto out = output_.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
  return output_;
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "ReLU: backward before forward");
  DTMSV_EXPECTS(same_shape(grad_output, output_));
  grad_input_.resize(grad_output.shape());
  const auto g = grad_output.data();
  const auto y = output_.data();
  auto gi = grad_input_.data();
  // Multiplies by the 0/1 mask rather than selecting, so a gradient
  // through an inactive unit is g·0 (a signed zero, or NaN for NaN g).
  for (std::size_t i = 0; i < g.size(); ++i) {
    gi[i] = g[i] * (y[i] > 0.0f ? 1.0f : 0.0f);
  }
  return grad_input_;
}

const Tensor& Tanh::forward(const Tensor& input) {
  output_.resize(input.shape());
  const auto in = input.data();
  auto out = output_.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = std::tanh(in[i]);
  }
  return output_;
}

const Tensor& Tanh::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "Tanh: backward before forward");
  DTMSV_EXPECTS(same_shape(grad_output, output_));
  grad_input_.resize(grad_output.shape());
  const auto g = grad_output.data();
  const auto y = output_.data();
  auto gi = grad_input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    gi[i] = g[i] * (1.0f - y[i] * y[i]);
  }
  return grad_input_;
}

const Tensor& Sigmoid::forward(const Tensor& input) {
  output_.resize(input.shape());
  const auto in = input.data();
  auto out = output_.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
  return output_;
}

const Tensor& Sigmoid::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "Sigmoid: backward before forward");
  DTMSV_EXPECTS(same_shape(grad_output, output_));
  grad_input_.resize(grad_output.shape());
  const auto g = grad_output.data();
  const auto y = output_.data();
  auto gi = grad_input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    gi[i] = g[i] * (y[i] * (1.0f - y[i]));
  }
  return grad_input_;
}

}  // namespace dtmsv::nn
