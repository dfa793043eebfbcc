// Elementwise activation layers (shape preserving).
#pragma once

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// Rectified linear unit: max(0, x).
class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor output_;  // > 0 exactly where the input was
  Tensor grad_input_;
};

/// Hyperbolic tangent.
class Tanh final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor output_;
  Tensor grad_input_;
};

/// Logistic sigmoid.
class Sigmoid final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace dtmsv::nn
