#include "nn/optimizer.hpp"

#include <cmath>

namespace dtmsv::nn {

double Optimizer::clip_grad_norm(double max_norm) {
  DTMSV_EXPECTS(max_norm > 0.0);
  double sq = 0.0;
  for (const auto& p : params_) {
    for (const float g : p.grad->data()) {
      sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (auto& p : params_) {
      *p.grad *= scale;
    }
  }
  return norm;
}

void Optimizer::zero_grad() {
  for (auto& p : params_) {
    p.grad->zero();
  }
}

Sgd::Sgd(std::vector<ParamRef> params, double learning_rate, double momentum)
    : Optimizer(std::move(params)), lr_(learning_rate), momentum_(momentum) {
  DTMSV_EXPECTS(learning_rate > 0.0);
  DTMSV_EXPECTS(momentum >= 0.0 && momentum < 1.0);
  velocity_.reserve(params_.size());
  for (const auto& p : params_) {
    velocity_.emplace_back(p.value->shape());
  }
}

void Sgd::set_learning_rate(double lr) {
  DTMSV_EXPECTS(lr > 0.0);
  lr_ = lr;
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto value = params_[i].value->data();
    const auto grad = params_[i].grad->data();
    auto vel = velocity_[i].data();
    for (std::size_t j = 0; j < value.size(); ++j) {
      vel[j] = static_cast<float>(momentum_) * vel[j] - static_cast<float>(lr_) * grad[j];
      value[j] += vel[j];
    }
  }
}

Adam::Adam(std::vector<ParamRef> params, double learning_rate, double beta1,
           double beta2, double epsilon)
    : Optimizer(std::move(params)),
      lr_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  DTMSV_EXPECTS(learning_rate > 0.0);
  DTMSV_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  DTMSV_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  DTMSV_EXPECTS(epsilon > 0.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->shape());
    v_.emplace_back(p.value->shape());
  }
}

void Adam::set_learning_rate(double lr) {
  DTMSV_EXPECTS(lr > 0.0);
  lr_ = lr;
}

// The update loop vectorises: this file is compiled without errno-setting
// math (see CMakeLists.txt), which is what otherwise keeps std::sqrt's
// error branch in the loop. Every operation in it (float<->double
// conversions, multiply, add, divide, square root) is a lane-wise IEEE
// operation, so each element's result is the scalar loop's.
void Adam::step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto value = params_[i].value->data();
    const auto grad = params_[i].grad->data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < value.size(); ++j) {
      const double g = grad[j];
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * g * g);
      const double m_hat = m[j] / bias1;
      const double v_hat = v[j] / bias2;
      value[j] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + epsilon_));
    }
  }
}

}  // namespace dtmsv::nn
