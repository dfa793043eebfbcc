#include "nn/sequential.hpp"

namespace dtmsv::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  DTMSV_EXPECTS(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(!layers_.empty(), "Sequential: no layers");
  const Tensor* x = &input;
  for (const auto& layer : layers_) {
    x = &layer->forward(*x);
  }
  return *x;
}

const Tensor& Sequential::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!layers_.empty(), "Sequential: no layers");
  const Tensor* g = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = &(*it)->backward(*g);
  }
  return *g;
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> params;
  for (const auto& layer : layers_) {
    for (auto& p : layer->parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

Layer& Sequential::layer(std::size_t i) {
  DTMSV_EXPECTS(i < layers_.size());
  return *layers_[i];
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (const auto& p : parameters()) {
    n += p.value->size();
  }
  return n;
}

}  // namespace dtmsv::nn
