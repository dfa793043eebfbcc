#include "nn/linear.hpp"

#include "nn/init.hpp"

namespace dtmsv::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      w_grad_({out_features, in_features}),
      b_grad_({out_features}) {
  DTMSV_EXPECTS(in_features > 0 && out_features > 0);
  xavier_uniform(w_, in_features, out_features, rng);
}

const Tensor& Linear::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 2 && input.dim(1) == in_features_,
                    "Linear: input must be [N, in_features]");
  input_ = &input;
  Tensor::matmul_bt(input, w_, output_);  // [N, out]
  const std::size_t n = output_.dim(0);
  float* op = output_.data().data();
  const float* bias = b_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = op + i * out_features_;
    for (std::size_t j = 0; j < out_features_; ++j) {
      orow[j] += bias[j];
    }
  }
  return output_;
}

const Tensor& Linear::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(grad_output.rank() == 2 && grad_output.dim(1) == out_features_,
                    "Linear: grad_output must be [N, out_features]");
  DTMSV_EXPECTS_MSG(input_ != nullptr, "Linear: backward before forward");
  DTMSV_EXPECTS(grad_output.dim(0) == input_->dim(0));

  // dL/dW = gradᵀ · input ; dL/db = column sums of grad ; dL/dx = grad · W
  Tensor::matmul_at(grad_output, *input_, w_grad_step_);
  w_grad_ += w_grad_step_;
  const std::size_t n = grad_output.dim(0);
  const float* gp = grad_output.data().data();
  float* bg = b_grad_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const float* grow = gp + i * out_features_;
    for (std::size_t j = 0; j < out_features_; ++j) {
      bg[j] += grow[j];
    }
  }
  Tensor::matmul(grad_output, w_, grad_input_);
  return grad_input_;
}

std::vector<ParamRef> Linear::parameters() {
  return {{&w_, &w_grad_, "weight"}, {&b_, &b_grad_, "bias"}};
}

}  // namespace dtmsv::nn
