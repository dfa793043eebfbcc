// The paper's first pipeline stage: "we first utilize a one-dimensional
// convolution neural network (1D-CNN) to compress the time-series UDTs'
// data." Trained online as an autoencoder (reconstruction MSE) over the
// users' feature windows; the bottleneck embedding feeds clustering.
//
// It reads twin::WindowBatch views straight out of the columnar
// extraction arena — one flat float matrix end to end, no per-user window
// vectors.
#pragma once

#include <memory>
#include <vector>

#include "clustering/kmeans.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "twin/arena.hpp"
#include "util/rng.hpp"

namespace dtmsv::core {

/// Compressor hyperparameters.
struct CompressorConfig {
  std::size_t channels = 11;      // twin::TwinColumnStore::kFeatureChannels
  std::size_t timesteps = 32;     // resampled window length
  std::size_t embedding_dim = 8;  // bottleneck width
  std::size_t conv1_filters = 16;
  std::size_t conv2_filters = 32;
  std::size_t decoder_hidden = 64;
  double learning_rate = 1e-3;
  std::size_t epochs_per_fit = 2;
  std::size_t batch_size = 32;
};

/// 1D-CNN autoencoder with an encoder bottleneck used as user embedding.
class FeatureCompressor {
 public:
  FeatureCompressor(const CompressorConfig& config, std::uint64_t seed);

  /// One online training pass: `windows` holds one channels*timesteps row
  /// per user. Returns the mean reconstruction loss of the final epoch.
  /// Requires at least one window.
  float fit(const twin::WindowBatch& windows);

  /// Embeds feature windows into the bottleneck space (no training).
  clustering::Points embed(const twin::WindowBatch& windows);

  /// Mean reconstruction MSE of the given windows under the current model.
  float reconstruction_loss(const twin::WindowBatch& windows);

  const CompressorConfig& config() const { return config_; }
  std::size_t input_size() const { return config_.channels * config_.timesteps; }
  nn::Sequential& encoder() { return *encoder_; }
  nn::Sequential& decoder() { return *decoder_; }

 private:
  /// Gathers windows.row(indices[begin..end)) (or rows begin..end when
  /// indices is null) into the reused batch_ tensor — one copy, no
  /// per-window allocations.
  nn::Tensor& gather_batch(const twin::WindowBatch& windows,
                           const std::size_t* indices, std::size_t begin,
                           std::size_t end);

  CompressorConfig config_;
  util::Rng rng_;
  std::unique_ptr<nn::Sequential> encoder_;  // [N,C,T] -> [N,emb]
  std::unique_ptr<nn::Sequential> decoder_;  // [N,emb] -> [N,C*T]
  std::unique_ptr<nn::Adam> optimizer_;
  nn::Tensor batch_;  // reused [N,C,T] staging buffer for fit/embed
  nn::LossResult loss_;  // reused reconstruction loss and its gradient
  std::vector<std::size_t> order_;  // fit's shuffled window order
};

}  // namespace dtmsv::core
