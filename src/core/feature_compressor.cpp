#include "core/feature_compressor.hpp"

#include <algorithm>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "util/error.hpp"

namespace dtmsv::core {

FeatureCompressor::FeatureCompressor(const CompressorConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  DTMSV_EXPECTS(config.channels > 0);
  DTMSV_EXPECTS(config.timesteps >= 8);
  DTMSV_EXPECTS(config.embedding_dim > 0);
  DTMSV_EXPECTS(config.batch_size > 0);

  encoder_ = std::make_unique<nn::Sequential>();
  encoder_->emplace<nn::Conv1D>(config.channels, config.conv1_filters,
                                /*kernel=*/5, rng_, /*stride=*/1, /*padding=*/2);
  encoder_->emplace<nn::ReLU>();
  encoder_->emplace<nn::MaxPool1D>(2);
  encoder_->emplace<nn::Conv1D>(config.conv1_filters, config.conv2_filters,
                                /*kernel=*/3, rng_, /*stride=*/1, /*padding=*/1);
  encoder_->emplace<nn::ReLU>();
  encoder_->emplace<nn::GlobalAvgPool1D>();
  encoder_->emplace<nn::Linear>(config.conv2_filters, config.embedding_dim, rng_);

  decoder_ = std::make_unique<nn::Sequential>();
  decoder_->emplace<nn::Linear>(config.embedding_dim, config.decoder_hidden, rng_);
  decoder_->emplace<nn::ReLU>();
  decoder_->emplace<nn::Linear>(config.decoder_hidden,
                                config.channels * config.timesteps, rng_);

  auto params = encoder_->parameters();
  for (auto& p : decoder_->parameters()) {
    params.push_back(p);
  }
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), config.learning_rate);
}

nn::Tensor& FeatureCompressor::gather_batch(const twin::WindowBatch& windows,
                                            const std::size_t* indices,
                                            std::size_t begin, std::size_t end) {
  DTMSV_EXPECTS(begin < end && end <= windows.size());
  DTMSV_EXPECTS_MSG(windows.window_size() == input_size(),
                    "FeatureCompressor: window size mismatch");
  const std::size_t n = end - begin;
  batch_.resize({n, config_.channels, config_.timesteps});
  auto data = batch_.data();
  if (indices == nullptr) {
    // Contiguous fleet slice (the embed path): WindowBatch rows are
    // adjacent in the arena, so the whole batch stages as one bulk copy.
    const float* src = windows.data() + begin * windows.window_size();
    std::copy(src, src + n * windows.window_size(), data.begin());
    return batch_;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = windows.row(indices[begin + i]);
    std::copy(w.begin(), w.end(), data.begin() + static_cast<std::ptrdiff_t>(i * w.size()));
  }
  return batch_;
}

float FeatureCompressor::fit(const twin::WindowBatch& windows) {
  DTMSV_EXPECTS(!windows.empty());
  float last_epoch_loss = 0.0f;
  order_.resize(windows.size());
  for (std::size_t epoch = 0; epoch < config_.epochs_per_fit; ++epoch) {
    // Shuffled minibatch order each epoch.
    for (std::size_t i = 0; i < order_.size(); ++i) {
      order_[i] = i;
    }
    rng_.shuffle(order_);

    float epoch_loss = 0.0f;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order_.size(); start += config_.batch_size) {
      const std::size_t stop = std::min(start + config_.batch_size, order_.size());
      nn::Tensor& input = gather_batch(windows, order_.data(), start, stop);

      const nn::Tensor& embedding = encoder_->forward(input);
      const nn::Tensor& reconstruction = decoder_->forward(embedding);
      // The flattened windows are the reconstruction target: view the
      // staged batch as [n, C*T] for the loss, then restore its shape
      // before the encoder's backward pass.
      input.resize({stop - start, input_size()});
      nn::mse_loss(reconstruction, input, loss_);
      input.resize({stop - start, config_.channels, config_.timesteps});

      optimizer_->zero_grad();
      const nn::Tensor& grad_embedding = decoder_->backward(loss_.grad);
      encoder_->backward(grad_embedding);
      optimizer_->clip_grad_norm(10.0);
      optimizer_->step();

      epoch_loss += loss_.value;
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<float>(batches) : 0.0f;
  }
  return last_epoch_loss;
}

clustering::Points FeatureCompressor::embed(const twin::WindowBatch& windows) {
  DTMSV_EXPECTS(!windows.empty());
  // Write straight into the flat point matrix: one allocation for the
  // whole embedding cloud instead of one per user. The encoder runs on
  // training-sized chunks, so every layer workspace stays at minibatch
  // shape; rows are independent, so chunking changes no value.
  clustering::Points points(windows.size(), config_.embedding_dim);
  double* rows = points.data();
  for (std::size_t start = 0; start < windows.size(); start += config_.batch_size) {
    const std::size_t stop = std::min(start + config_.batch_size, windows.size());
    const nn::Tensor& embedding =
        encoder_->forward(gather_batch(windows, nullptr, start, stop));
    const float* emb = embedding.data().data();
    double* out = rows + start * config_.embedding_dim;
    for (std::size_t i = 0; i < (stop - start) * config_.embedding_dim; ++i) {
      out[i] = static_cast<double>(emb[i]);
    }
  }
  return points;
}

float FeatureCompressor::reconstruction_loss(const twin::WindowBatch& windows) {
  DTMSV_EXPECTS(!windows.empty());
  const nn::Tensor& input = gather_batch(windows, nullptr, 0, windows.size());
  const nn::Tensor target = input.reshaped({windows.size(), input_size()});
  const nn::Tensor& reconstruction = decoder_->forward(encoder_->forward(input));
  return nn::mse_loss(reconstruction, target).value;
}

}  // namespace dtmsv::core
