// Layer abstraction. Layers own their parameters and parameter gradients;
// forward() caches whatever backward() needs. No autograd graph — the
// caller (Sequential or a loss) drives the backward pass explicitly.
//
// Layers also own their outputs: forward() and backward() write into
// layer-owned workspaces and return references to them, so a training
// loop over same-shaped minibatches allocates nothing after the first.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace dtmsv::nn {

/// Non-owning view of a parameter tensor and its gradient accumulator.
/// Lifetime: valid while the owning layer is alive (Core Guidelines I.11 —
/// these are views, ownership stays with the layer).
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

/// Base class for differentiable layers.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes outputs; caches activations needed by backward(). The
  /// returned tensor is owned by the layer and stays valid until its next
  /// forward(). `input` must stay alive and unmodified until the matching
  /// backward() returns (a layer may read it there instead of copying it).
  virtual const Tensor& forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (dL/doutput) to dL/dinput, accumulating
  /// parameter gradients. Must be preceded by a matching forward(). The
  /// returned gradient is layer-owned and valid until the next backward().
  virtual const Tensor& backward(const Tensor& grad_output) = 0;

  /// Parameter views for the optimiser. Default: no parameters.
  virtual std::vector<ParamRef> parameters() { return {}; }

  /// Zeroes all parameter gradients.
  void zero_grad();

  virtual std::string name() const = 0;
};

inline void Layer::zero_grad() {
  for (auto& p : parameters()) {
    p.grad->zero();
  }
}

}  // namespace dtmsv::nn
