// 1-D convolution over time-series data — the compressor the paper applies
// to UDT attribute histories ("we first utilize a one-dimensional
// convolution neural network to compress the time-series UDTs' data").
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace dtmsv::nn {

/// Conv1D mapping [N, in_channels, L] -> [N, out_channels, L_out]
/// with L_out = (L + 2*padding - kernel) / stride + 1 (zero padding).
class Conv1D final : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         util::Rng& rng, std::size_t stride = 1, std::size_t padding = 0);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Conv1D"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t padding() const { return padding_; }

  /// Output length for a given input length; throws if the geometry is invalid.
  std::size_t output_length(std::size_t input_length) const;

  Tensor& weights() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  Tensor w_;        // [out_ch, in_ch, kernel], read as [out_ch, in_ch*kernel]
  Tensor b_;        // [out_ch]
  Tensor w_grad_;
  Tensor b_grad_;
  Shape input_shape_;
  // Layer-owned workspaces, reused across same-shaped minibatches.
  // cols_ is the channel-major im2col, cached between forward and
  // backward: cols_[b][c*kernel + k][t] = x[b][c][t*stride + k - padding]
  // (zero in the padding), so each batch element's forward is one
  // W · cols_b product written straight into [N, out_ch, L_out].
  Tensor cols_;        // [N, in_ch*kernel, L_out]
  Tensor output_;      // [N, out_ch, L_out]
  Tensor grad_input_;  // [N, in_ch, L]
  Tensor grad_t_;      // [L_out, out_ch] one batch element's gradient, transposed
  Tensor w_grad_t_;    // [in_ch*kernel, out_ch] this backward's dL/dW, transposed
};

}  // namespace dtmsv::nn
