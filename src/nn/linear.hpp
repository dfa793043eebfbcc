// Fully connected layer: y = x·Wᵀ + b, batched over rows.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace dtmsv::nn {

/// Linear (dense) layer mapping [N, in_features] -> [N, out_features].
class Linear final : public Layer {
 public:
  /// Weights are Xavier-initialised from `rng`; biases start at zero.
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  /// Direct parameter access (used by serialisation and tests).
  Tensor& weights() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Tensor w_;       // [out, in]
  Tensor b_;       // [out]
  Tensor w_grad_;  // [out, in]
  Tensor b_grad_;  // [out]
  const Tensor* input_ = nullptr;  // forward input [N, in], read by backward
  Tensor output_;      // [N, out]
  Tensor w_grad_step_;  // this backward's dL/dW before accumulation
  Tensor grad_input_;  // [N, in]
};

}  // namespace dtmsv::nn
