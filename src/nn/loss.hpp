// Loss functions returning (value, gradient-w.r.t.-prediction) pairs.
#pragma once

#include "nn/tensor.hpp"

namespace dtmsv::nn {

/// Loss value plus dL/dprediction, ready to feed into Layer::backward.
struct LossResult {
  float value = 0.0f;
  Tensor grad;
};

/// Mean squared error averaged over all elements.
LossResult mse_loss(const Tensor& prediction, const Tensor& target);

/// The same, written into `result` (its gradient buffer is reused when the
/// shape repeats, as in a minibatch training loop).
void mse_loss(const Tensor& prediction, const Tensor& target, LossResult& result);

/// Huber (smooth-L1) loss averaged over all elements; quadratic within
/// |err| <= delta, linear outside. The standard DQN training loss.
LossResult huber_loss(const Tensor& prediction, const Tensor& target,
                      float delta = 1.0f);

/// MSE restricted to elements where mask != 0 (used by DDQN to train only
/// the Q-value of the action actually taken). The average is over the
/// masked element count.
LossResult masked_mse_loss(const Tensor& prediction, const Tensor& target,
                           const Tensor& mask);

/// Huber restricted to masked elements.
LossResult masked_huber_loss(const Tensor& prediction, const Tensor& target,
                             const Tensor& mask, float delta = 1.0f);

}  // namespace dtmsv::nn
