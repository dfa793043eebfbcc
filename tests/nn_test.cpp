// Unit tests for dtmsv::nn — tensor algebra, every layer's forward values
// and gradient-checked backward pass, losses, optimisers (including a full
// training convergence test), and parameter serialisation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/gradient_check.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtmsv::nn;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::util::RuntimeError;

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) {
    v = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

// Loss used in gradient checks: 0.5 * sum(y^2) with gradient y.
float half_sq_loss(const Tensor& y) {
  float total = 0.0f;
  for (const float v : y.data()) {
    total += 0.5f * v * v;
  }
  return total;
}
Tensor half_sq_grad(const Tensor& y) { return y; }

// ------------------------------------------------------------------ Tensor

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
  for (const float v : t.data()) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(Tensor, ZeroDimensionRejected) {
  EXPECT_THROW(Tensor({2, 0, 3}), PreconditionError);
}

TEST(Tensor, ValueCountMismatchRejected) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), PreconditionError);
}

TEST(Tensor, FromRows) {
  const Tensor t = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 2u);
  EXPECT_EQ(t.at2(1, 0), 3.0f);
}

TEST(Tensor, RaggedRowsRejected) {
  EXPECT_THROW(Tensor::from_rows({{1.0f, 2.0f}, {3.0f}}), PreconditionError);
}

TEST(Tensor, ElementAccess3D) {
  Tensor t({2, 3, 4});
  t.at3(1, 2, 3) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  EXPECT_THROW(t.at3(2, 0, 0), PreconditionError);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), PreconditionError);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({2}, {1.0f, 2.0f});
  const Tensor b({2}, {3.0f, 4.0f});
  a += b;
  EXPECT_EQ(a[0], 4.0f);
  a -= b;
  EXPECT_EQ(a[1], 2.0f);
  a *= 3.0f;
  EXPECT_EQ(a[0], 3.0f);
}

TEST(Tensor, ShapeMismatchInPlusRejected) {
  Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW(a += b, PreconditionError);
}

TEST(Tensor, Reductions) {
  const Tensor t({4}, {1.0f, -5.0f, 2.0f, 2.0f});
  EXPECT_EQ(t.sum(), 0.0f);
  EXPECT_EQ(t.mean(), 0.0f);
  EXPECT_EQ(t.abs_max(), 5.0f);
}

TEST(Tensor, MatmulKnownValues) {
  const Tensor a = Tensor::from_rows({{1, 2}, {3, 4}});
  const Tensor b = Tensor::from_rows({{5, 6}, {7, 8}});
  const Tensor c = Tensor::matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 19.0f);
  EXPECT_EQ(c.at2(0, 1), 22.0f);
  EXPECT_EQ(c.at2(1, 0), 43.0f);
  EXPECT_EQ(c.at2(1, 1), 50.0f);
}

TEST(Tensor, MatmulTransposedVariantsAgree) {
  Rng rng(1);
  const Tensor a = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({4, 5}, rng);
  const Tensor expected = Tensor::matmul(a, b);

  // matmul_bt(a, bT) == a·b
  Tensor bt({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      bt.at2(j, i) = b.at2(i, j);
    }
  }
  const Tensor via_bt = Tensor::matmul_bt(a, bt);
  ASSERT_TRUE(same_shape(via_bt, expected));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(via_bt[i], expected[i], 1e-4);
  }

  // matmul_at(aT, b) == a·b
  Tensor at({4, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      at.at2(j, i) = a.at2(i, j);
    }
  }
  const Tensor via_at = Tensor::matmul_at(at, b);
  ASSERT_TRUE(same_shape(via_at, expected));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(via_at[i], expected[i], 1e-4);
  }
}

TEST(Tensor, MatmulInnerDimMismatchRejected) {
  const Tensor a({2, 3});
  const Tensor b({4, 2});
  EXPECT_THROW(Tensor::matmul(a, b), PreconditionError);
}

// -------------------------------------------------------------------- Init

TEST(Init, XavierWithinBound) {
  Rng rng(2);
  Tensor w({64, 32});
  xavier_uniform(w, 32, 64, rng);
  const double bound = std::sqrt(6.0 / (32 + 64));
  for (const float v : w.data()) {
    EXPECT_LE(std::abs(v), bound + 1e-6);
  }
  EXPECT_GT(w.abs_max(), 0.0f);
}

TEST(Init, KaimingVarianceApprox) {
  Rng rng(3);
  Tensor w({200, 100});
  kaiming_normal(w, 100, rng);
  double sq = 0.0;
  for (const float v : w.data()) {
    sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sq / static_cast<double>(w.size()), 2.0 / 100.0, 0.002);
}

// ------------------------------------------------------------------ Linear

TEST(Linear, ForwardKnownValues) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  layer.weights() = Tensor::from_rows({{1, 2}, {3, 4}});
  layer.bias() = Tensor({2}, {0.5f, -0.5f});
  const Tensor x = Tensor::from_rows({{1, 1}});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at2(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, GradientCheck) {
  Rng rng(5);
  Linear layer(4, 3, rng);
  const Tensor x = random_tensor({5, 4}, rng);
  const auto result = check_gradients(layer, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok()) << "param err " << result.max_param_error << " input err "
                           << result.max_input_error;
}

TEST(Linear, BackwardBeforeForwardRejected) {
  Rng rng(6);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({1, 2})), PreconditionError);
}

TEST(Linear, GradAccumulatesAcrossBackward) {
  Rng rng(7);
  Linear layer(2, 2, rng);
  const Tensor x = random_tensor({3, 2}, rng);
  const Tensor g = random_tensor({3, 2}, rng);
  layer.forward(x);
  layer.backward(g);
  const auto params = layer.parameters();
  const float first = (*params[0].grad)[0];
  layer.forward(x);
  layer.backward(g);
  EXPECT_NEAR((*params[0].grad)[0], 2.0f * first, 1e-4);
  layer.zero_grad();
  EXPECT_EQ((*params[0].grad)[0], 0.0f);
}

// ------------------------------------------------------------------ Conv1D

TEST(Conv1D, OutputLengthFormula) {
  Rng rng(8);
  Conv1D conv(1, 1, 3, rng, /*stride=*/1, /*padding=*/1);
  EXPECT_EQ(conv.output_length(8), 8u);
  Conv1D strided(1, 1, 3, rng, /*stride=*/2, /*padding=*/0);
  EXPECT_EQ(strided.output_length(9), 4u);
  EXPECT_THROW(strided.output_length(2), PreconditionError);
}

TEST(Conv1D, ForwardIdentityKernel) {
  Rng rng(9);
  Conv1D conv(1, 1, 1, rng);
  conv.weights().fill(1.0f);
  conv.bias().fill(0.0f);
  const Tensor x({1, 1, 4}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(2), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y.at3(0, 0, i), x.at3(0, 0, i));
  }
}

TEST(Conv1D, ForwardMovingSum) {
  Rng rng(10);
  Conv1D conv(1, 1, 3, rng, 1, 0);
  conv.weights().fill(1.0f);
  conv.bias().fill(0.0f);
  const Tensor x({1, 1, 5}, {1, 2, 3, 4, 5});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(2), 3u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 12.0f);
}

TEST(Conv1D, PaddingZeros) {
  Rng rng(11);
  Conv1D conv(1, 1, 3, rng, 1, 1);
  conv.weights().fill(1.0f);
  conv.bias().fill(0.0f);
  const Tensor x({1, 1, 3}, {1, 2, 3});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(2), 3u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 3.0f);  // 0+1+2
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 5.0f);  // 2+3+0
}

TEST(Conv1D, GradientCheckNoPadding) {
  Rng rng(12);
  Conv1D conv(2, 3, 3, rng, 1, 0);
  const Tensor x = random_tensor({2, 2, 8}, rng);
  const auto result = check_gradients(conv, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok()) << result.max_param_error << " / " << result.max_input_error;
}

TEST(Conv1D, GradientCheckStridedPadded) {
  Rng rng(13);
  Conv1D conv(2, 2, 3, rng, 2, 1);
  const Tensor x = random_tensor({2, 2, 7}, rng);
  // Slightly looser tolerance: float32 central differences on a strided,
  // padded conv accumulate more rounding error than the dense case.
  const auto result = check_gradients(conv, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok(2e-2)) << result.max_param_error << " / "
                               << result.max_input_error;
}

// Exact-bits comparison: the layer promises the same accumulation chains
// as the naive references below, not merely close values.
void expect_same_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

struct ConvReference {
  Tensor out, grad_input, grad_weight, grad_bias;
};

// Naive per-element Conv1D in the orders the layer promises: each output
// is one ascending-(c, k) madd chain over the zero-padded input (padding
// taps included) plus the bias; each weight gradient one ascending-(b, t)
// chain; the bias gradient per-element row sums; and each input gradient
// the sum, in ascending output position t, of that tap's ascending-f
// chain.
ConvReference naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                         const Tensor& g, std::size_t stride, std::size_t pad) {
  const std::size_t n = x.dim(0), c_in = x.dim(1), len = x.dim(2);
  const std::size_t f_out = w.dim(0), kernel = w.dim(2);
  const std::size_t out_len = (len + 2 * pad - kernel) / stride + 1;
  const auto xp = [&](std::size_t b, std::size_t c, std::size_t padded) {
    return padded < pad || padded >= pad + len ? 0.0f : x.at3(b, c, padded - pad);
  };
  ConvReference r{Tensor({n, f_out, out_len}), Tensor({n, c_in, len}),
                  Tensor(w.shape()), Tensor({f_out})};
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t f = 0; f < f_out; ++f) {
      for (std::size_t t = 0; t < out_len; ++t) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < c_in; ++c) {
          for (std::size_t k = 0; k < kernel; ++k) {
            acc = fused_madd(w.at3(f, c, k), xp(b, c, t * stride + k), acc);
          }
        }
        r.out.at3(b, f, t) = acc + bias[f];
      }
    }
  }
  for (std::size_t f = 0; f < f_out; ++f) {
    for (std::size_t b = 0; b < n; ++b) {
      float row = 0.0f;
      for (std::size_t t = 0; t < out_len; ++t) {
        row += g.at3(b, f, t);
      }
      r.grad_bias[f] += row;
    }
    for (std::size_t c = 0; c < c_in; ++c) {
      for (std::size_t k = 0; k < kernel; ++k) {
        float acc = 0.0f;
        for (std::size_t b = 0; b < n; ++b) {
          for (std::size_t t = 0; t < out_len; ++t) {
            acc = fused_madd(g.at3(b, f, t), xp(b, c, t * stride + k), acc);
          }
        }
        r.grad_weight.at3(f, c, k) += acc;
      }
    }
  }
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t c = 0; c < c_in; ++c) {
      for (std::size_t t = 0; t < out_len; ++t) {
        for (std::size_t k = 0; k < kernel; ++k) {
          const std::size_t padded = t * stride + k;
          if (padded < pad || padded >= pad + len) {
            continue;
          }
          float tap = 0.0f;
          for (std::size_t f = 0; f < f_out; ++f) {
            tap = fused_madd(w.at3(f, c, k), g.at3(b, f, t), tap);
          }
          r.grad_input.at3(b, c, padded - pad) += tap;
        }
      }
    }
  }
  return r;
}

TEST(Conv1D, MatchesNaiveReferenceBitForBit) {
  Rng rng(14);
  for (const std::size_t kernel : {1u, 3u, 5u}) {
    for (const std::size_t pad : {0u, 1u, 2u}) {
      for (const std::size_t stride : {1u, 2u}) {
        for (const std::size_t len : {8u, 9u, 16u, 33u}) {
          SCOPED_TRACE(testing::Message() << "kernel=" << kernel << " pad=" << pad
                                          << " stride=" << stride << " len=" << len);
          Conv1D conv(3, 5, kernel, rng, stride, pad);
          for (float& v : conv.bias().data()) {
            v = static_cast<float>(rng.normal(0.0, 0.5));
          }
          const std::size_t out_len = conv.output_length(len);
          // A larger warm-up batch first, so the checked pass runs on
          // reused, shrunk workspaces.
          const Tensor warm = random_tensor({4, 3, len}, rng);
          (void)conv.forward(warm);
          (void)conv.backward(random_tensor({4, 5, out_len}, rng));
          conv.zero_grad();

          const Tensor x = random_tensor({2, 3, len}, rng);
          const Tensor g = random_tensor({2, 5, out_len}, rng);
          const ConvReference want =
              naive_conv(x, conv.weights(), conv.bias(), g, stride, pad);
          expect_same_bits(conv.forward(x), want.out, "output");
          expect_same_bits(conv.backward(g), want.grad_input, "input gradient");
          const auto params = conv.parameters();
          expect_same_bits(*params[0].grad, want.grad_weight, "weight gradient");
          expect_same_bits(*params[1].grad, want.grad_bias, "bias gradient");
        }
      }
    }
  }
}

// ------------------------------------------------------------- Activations

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  const Tensor x({3}, {-1.0f, 1.0f, 2.0f});
  relu.forward(x);
  const Tensor g({3}, {5.0f, 5.0f, 5.0f});
  const Tensor gi = relu.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 5.0f);
  EXPECT_EQ(gi[2], 5.0f);
}

TEST(Tanh, GradientCheck) {
  Rng rng(14);
  Tanh layer;
  const Tensor x = random_tensor({3, 5}, rng, 0.5);
  const auto result = check_gradients(layer, x, half_sq_loss, half_sq_grad, 1e-3f);
  EXPECT_TRUE(result.ok(2e-2)) << result.max_input_error;
}

TEST(Sigmoid, ForwardRangeAndMidpoint) {
  Sigmoid s;
  const Tensor x({3}, {-100.0f, 0.0f, 100.0f});
  const Tensor y = s.forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-6);
}

TEST(Sigmoid, GradientCheck) {
  Rng rng(15);
  Sigmoid layer;
  const Tensor x = random_tensor({2, 6}, rng, 0.5);
  const auto result = check_gradients(layer, x, half_sq_loss, half_sq_grad, 1e-3f);
  EXPECT_TRUE(result.ok(2e-2)) << result.max_input_error;
}

// ----------------------------------------------------------------- Pooling

TEST(MaxPool1D, ForwardPicksMaxima) {
  MaxPool1D pool(2);
  const Tensor x({1, 1, 6}, {1, 5, 2, 2, 9, 0});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.dim(2), 3u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 9.0f);
}

TEST(MaxPool1D, PartialTrailingWindow) {
  MaxPool1D pool(4);
  const Tensor x({1, 1, 6}, {1, 2, 3, 4, 9, 5});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.dim(2), 2u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 9.0f);
}

TEST(MaxPool1D, BackwardRoutesToArgmax) {
  MaxPool1D pool(2);
  const Tensor x({1, 1, 4}, {1, 5, 7, 2});
  pool.forward(x);
  const Tensor g({1, 1, 2}, {10.0f, 20.0f});
  const Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 1), 10.0f);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 2), 20.0f);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 3), 0.0f);
}

TEST(GlobalAvgPool1D, ForwardAndGradientCheck) {
  GlobalAvgPool1D pool;
  const Tensor x({1, 2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 25.0f);

  Rng rng(16);
  GlobalAvgPool1D pool2;
  const Tensor xr = random_tensor({2, 3, 5}, rng);
  const auto result = check_gradients(pool2, xr, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok()) << result.max_input_error;
}

TEST(Flatten, RoundTripShapes) {
  Flatten f;
  const Tensor x({2, 3, 4});
  const Tensor y = f.forward(x);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 12u);
  const Tensor gi = f.backward(Tensor({2, 12}));
  EXPECT_EQ(gi.shape(), x.shape());
}

// -------------------------------------------------------------- Sequential

TEST(Sequential, ChainsForwardBackward) {
  Rng rng(17);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.parameter_count(), 4u * 8 + 8 + 8 * 2 + 2);

  const Tensor x = random_tensor({5, 4}, rng);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.dim(1), 2u);
  const Tensor gi = net.backward(Tensor::full({5, 2}, 1.0f));
  EXPECT_EQ(gi.shape(), x.shape());
}

TEST(Sequential, GradientCheckWholeStack) {
  // Smooth layers only: finite differences are unreliable at ReLU/max-pool
  // kinks (the perturbation flips the active branch), so the stack check
  // uses Tanh and average pooling; the kinked layers have dedicated
  // behavioural tests above.
  Rng rng(18);
  Sequential net;
  net.emplace<Conv1D>(2, 3, 3, rng, 1, 1);
  net.emplace<Tanh>();
  net.emplace<Conv1D>(3, 2, 3, rng, 2, 0);
  net.emplace<GlobalAvgPool1D>();
  net.emplace<Linear>(2, 2, rng);
  const Tensor x = random_tensor({2, 2, 8}, rng, 0.7);
  const auto result = check_gradients(net, x, half_sq_loss, half_sq_grad, 5e-3f);
  EXPECT_TRUE(result.ok(3e-2)) << result.max_param_error << " / "
                               << result.max_input_error;
}

TEST(Sequential, EmptyStackRejected) {
  Sequential net;
  EXPECT_THROW(net.forward(Tensor({1, 1})), PreconditionError);
}

// ------------------------------------------------------------------ Losses

TEST(Loss, MseValueAndGradient) {
  const Tensor pred({2}, {1.0f, 3.0f});
  const Tensor target({2}, {0.0f, 1.0f});
  const auto loss = mse_loss(pred, target);
  EXPECT_NEAR(loss.value, (1.0f + 4.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(loss.grad[0], 2.0f * 1.0f / 2.0f, 1e-6);
  EXPECT_NEAR(loss.grad[1], 2.0f * 2.0f / 2.0f, 1e-6);
}

TEST(Loss, HuberQuadraticInside) {
  const Tensor pred({1}, {0.5f});
  const Tensor target({1}, {0.0f});
  const auto loss = huber_loss(pred, target, 1.0f);
  EXPECT_NEAR(loss.value, 0.125f, 1e-6);
  EXPECT_NEAR(loss.grad[0], 0.5f, 1e-6);
}

TEST(Loss, HuberLinearOutside) {
  const Tensor pred({1}, {3.0f});
  const Tensor target({1}, {0.0f});
  const auto loss = huber_loss(pred, target, 1.0f);
  EXPECT_NEAR(loss.value, 1.0f * (3.0f - 0.5f), 1e-6);
  EXPECT_NEAR(loss.grad[0], 1.0f, 1e-6);
}

TEST(Loss, MaskedMseIgnoresUnmasked) {
  const Tensor pred({4}, {1.0f, 100.0f, 2.0f, -50.0f});
  const Tensor target({4}, {0.0f, 0.0f, 0.0f, 0.0f});
  const Tensor mask({4}, {1.0f, 0.0f, 1.0f, 0.0f});
  const auto loss = masked_mse_loss(pred, target, mask);
  EXPECT_NEAR(loss.value, (1.0f + 4.0f) / 2.0f, 1e-6);
  EXPECT_EQ(loss.grad[1], 0.0f);
  EXPECT_EQ(loss.grad[3], 0.0f);
}

TEST(Loss, MaskedEmptyMaskRejected) {
  const Tensor pred({2});
  const Tensor target({2});
  const Tensor mask({2});
  EXPECT_THROW(masked_mse_loss(pred, target, mask), PreconditionError);
  EXPECT_THROW(masked_huber_loss(pred, target, mask), PreconditionError);
}

TEST(Loss, ShapeMismatchRejected) {
  EXPECT_THROW(mse_loss(Tensor({2}), Tensor({3})), PreconditionError);
}

// -------------------------------------------------------------- Optimisers

TEST(Sgd, SingleStepDescendsGradient) {
  Rng rng(19);
  Linear layer(1, 1, rng);
  layer.weights().fill(1.0f);
  layer.bias().fill(0.0f);
  Sgd opt(layer.parameters(), 0.1);

  // y = w·x; loss = 0.5 y² with x=2 → dL/dw = y·x = 4w
  const Tensor x = Tensor::from_rows({{2.0f}});
  const Tensor y = layer.forward(x);
  layer.backward(y);
  opt.step();
  EXPECT_NEAR(layer.weights()[0], 1.0f - 0.1f * 4.0f, 1e-5);
}

TEST(Sgd, MomentumAccumulates) {
  Rng rng(20);
  Linear layer(1, 1, rng);
  layer.weights().fill(0.0f);
  layer.bias().fill(0.0f);
  Sgd opt(layer.parameters(), 0.1, 0.9);
  // Constant gradient 1 on the weight.
  auto params = layer.parameters();
  for (int i = 0; i < 3; ++i) {
    params[0].grad->fill(1.0f);
    params[1].grad->fill(0.0f);
    opt.step();
  }
  // velocities: -0.1, -0.19, -0.271 → weight = -0.561
  EXPECT_NEAR(layer.weights()[0], -0.561f, 1e-4);
}

TEST(Adam, ConvergesOnQuadratic) {
  Rng rng(21);
  Linear layer(1, 1, rng);
  Adam opt(layer.parameters(), 0.05);
  // Minimise (w·1 + b - 3)²; optimum w + b = 3.
  const Tensor x = Tensor::from_rows({{1.0f}});
  const Tensor target = Tensor::from_rows({{3.0f}});
  for (int i = 0; i < 500; ++i) {
    const Tensor y = layer.forward(x);
    const auto loss = mse_loss(y, target);
    layer.zero_grad();
    layer.backward(loss.grad);
    opt.step();
  }
  const Tensor y = layer.forward(x);
  EXPECT_NEAR(y[0], 3.0f, 1e-2);
  EXPECT_EQ(opt.step_count(), 500u);
}

TEST(Adam, GradClipBoundsNorm) {
  Rng rng(22);
  Linear layer(4, 4, rng);
  Adam opt(layer.parameters(), 0.01);
  auto params = layer.parameters();
  params[0].grad->fill(100.0f);
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_GT(pre, 1.0);
  double sq = 0.0;
  for (const auto& p : layer.parameters()) {
    for (const float g : p.grad->data()) {
      sq += static_cast<double>(g) * g;
    }
  }
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4);
}

TEST(Adam, StepMatchesScalarLoop) {
  // Parameter sizes cover a vector body and a ragged tail; some gradients
  // are zero and steps 3 and 4 are clipped before the update.
  Rng rng(24);
  Tensor w = random_tensor({37, 29}, rng);
  Tensor b = random_tensor({13}, rng);
  Tensor gw(w.shape());
  Tensor gb(b.shape());
  const double lr = 0.01, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  Adam opt({{&w, &gw, "w"}, {&b, &gb, "b"}}, lr, beta1, beta2, eps);

  std::vector<Tensor> values{w, b};
  std::vector<Tensor> m{Tensor(w.shape()), Tensor(b.shape())};
  std::vector<Tensor> v{Tensor(w.shape()), Tensor(b.shape())};
  for (std::size_t t = 1; t <= 5; ++t) {
    const double scale = t == 3 || t == 4 ? 50.0 : 1.0;
    for (Tensor* grad : {&gw, &gb}) {
      for (std::size_t i = 0; i < grad->size(); ++i) {
        (*grad)[i] = i % 3 == 0 ? 0.0f : static_cast<float>(rng.normal(0.0, scale));
      }
    }
    if (scale > 1.0) {
      EXPECT_GT(opt.clip_grad_norm(1.0), 1.0);
    }
    // The scalar loop, on the gradients exactly as the optimiser sees them.
    const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    const Tensor* grads[] = {&gw, &gb};
    for (std::size_t p = 0; p < values.size(); ++p) {
      for (std::size_t j = 0; j < values[p].size(); ++j) {
        const double g = (*grads[p])[j];
        m[p][j] = static_cast<float>(beta1 * m[p][j] + (1.0 - beta1) * g);
        v[p][j] = static_cast<float>(beta2 * v[p][j] + (1.0 - beta2) * g * g);
        const double m_hat = m[p][j] / bias1;
        const double v_hat = v[p][j] / bias2;
        values[p][j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
      }
    }
    opt.step();
    SCOPED_TRACE(testing::Message() << "step " << t);
    expect_same_bits(w, values[0], "weights");
    expect_same_bits(b, values[1], "bias");
  }
}

TEST(Optimizer, RejectsBadHyperparameters) {
  Rng rng(23);
  Linear layer(1, 1, rng);
  EXPECT_THROW(Sgd(layer.parameters(), 0.0), PreconditionError);
  EXPECT_THROW(Sgd(layer.parameters(), 0.1, 1.0), PreconditionError);
  EXPECT_THROW(Adam(layer.parameters(), -1.0), PreconditionError);
}

// ----------------------------------------------------------- Serialisation

TEST(Serialize, SaveLoadRoundTrip) {
  Rng rng(24);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(4, 2, rng);

  std::stringstream stream;
  save_parameters(net, stream);

  Rng rng2(999);
  Sequential other;
  other.emplace<Linear>(3, 4, rng2);
  other.emplace<ReLU>();
  other.emplace<Linear>(4, 2, rng2);
  load_parameters(other, stream);

  const Tensor x = random_tensor({2, 3}, rng);
  const Tensor y1 = net.forward(x);
  const Tensor y2 = other.forward(x);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-5);
  }
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(25);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  std::stringstream stream;
  save_parameters(net, stream);

  Sequential wrong;
  wrong.emplace<Linear>(3, 5, rng);
  EXPECT_THROW(load_parameters(wrong, stream), RuntimeError);
}

TEST(Serialize, BadMagicThrows) {
  Rng rng(26);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  std::stringstream stream("garbage 1");
  EXPECT_THROW(load_parameters(net, stream), RuntimeError);
}

TEST(Serialize, CopyParametersMakesNetworksIdentical) {
  Rng rng(27);
  Sequential a;
  a.emplace<Linear>(3, 3, rng);
  Sequential b;
  b.emplace<Linear>(3, 3, rng);
  copy_parameters(a, b);
  const Tensor x = random_tensor({1, 3}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, SoftUpdateInterpolates) {
  Rng rng(28);
  Sequential a;
  a.emplace<Linear>(1, 1, rng);
  Sequential b;
  b.emplace<Linear>(1, 1, rng);
  a.parameters()[0].value->fill(1.0f);
  b.parameters()[0].value->fill(0.0f);
  soft_update(a, b, 0.25);
  EXPECT_NEAR((*b.parameters()[0].value)[0], 0.25f, 1e-6);
  soft_update(a, b, 1.0);
  EXPECT_NEAR((*b.parameters()[0].value)[0], 1.0f, 1e-6);
}

// ---------------------------------------------- End-to-end training sanity

TEST(Training, CnnAutoencoderReducesLoss) {
  Rng rng(29);
  Sequential encoder;
  encoder.emplace<Conv1D>(2, 4, 3, rng, 1, 1);
  encoder.emplace<ReLU>();
  encoder.emplace<GlobalAvgPool1D>();
  encoder.emplace<Linear>(4, 3, rng);
  Sequential decoder;
  decoder.emplace<Linear>(3, 16, rng);
  decoder.emplace<ReLU>();
  decoder.emplace<Linear>(16, 2 * 8, rng);

  auto params = encoder.parameters();
  for (auto& p : decoder.parameters()) {
    params.push_back(p);
  }
  Adam opt(std::move(params), 3e-3);

  // Structured (compressible) input: per-sample phase-shifted sinusoids.
  Tensor x({16, 2, 8});
  for (std::size_t n = 0; n < 16; ++n) {
    const double phase = 2.0 * M_PI * static_cast<double>(n) / 16.0;
    const double amp = 0.5 + 0.05 * static_cast<double>(n);
    for (std::size_t t = 0; t < 8; ++t) {
      const double arg = 2.0 * M_PI * static_cast<double>(t) / 8.0 + phase;
      x.at3(n, 0, t) = static_cast<float>(amp * std::sin(arg));
      x.at3(n, 1, t) = static_cast<float>(amp * std::cos(arg));
    }
  }
  const Tensor target = x.reshaped({16, 16});

  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int epoch = 0; epoch < 150; ++epoch) {
    const Tensor recon = decoder.forward(encoder.forward(x));
    const auto loss = mse_loss(recon, target);
    if (epoch == 0) {
      first_loss = loss.value;
    }
    last_loss = loss.value;
    encoder.zero_grad();
    decoder.zero_grad();
    encoder.backward(decoder.backward(loss.grad));
    opt.step();
  }
  EXPECT_LT(last_loss, 0.6f * first_loss)
      << "autoencoder failed to learn: " << first_loss << " -> " << last_loss;
}

}  // namespace
