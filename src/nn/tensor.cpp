#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "nn/kernels.hpp"
#include "util/parallel.hpp"

namespace dtmsv::nn {

namespace {
std::size_t element_count(const Shape& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) {
    n *= d;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(element_count(shape_), 0.0f) {
  for (const std::size_t d : shape_) {
    DTMSV_EXPECTS_MSG(d > 0, "tensor dimensions must be positive");
  }
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  DTMSV_EXPECTS_MSG(data_.size() == element_count(shape_),
                    "value count does not match shape");
}

Tensor Tensor::from_vector(std::vector<float> values) {
  const std::size_t n = values.size();
  return Tensor({n}, std::move(values));
}

Tensor Tensor::from_rows(std::initializer_list<std::initializer_list<float>> rows) {
  DTMSV_EXPECTS(rows.size() > 0);
  const std::size_t cols = rows.begin()->size();
  std::vector<float> values;
  values.reserve(rows.size() * cols);
  for (const auto& row : rows) {
    DTMSV_EXPECTS_MSG(row.size() == cols, "ragged rows");
    values.insert(values.end(), row.begin(), row.end());
  }
  return Tensor({rows.size(), cols}, std::move(values));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  DTMSV_EXPECTS(axis < shape_.size());
  return shape_[axis];
}

float& Tensor::operator[](std::size_t i) {
  DTMSV_EXPECTS(i < data_.size());
  return data_[i];
}

float Tensor::operator[](std::size_t i) const {
  DTMSV_EXPECTS(i < data_.size());
  return data_[i];
}

float& Tensor::at2(std::size_t r, std::size_t c) {
  DTMSV_EXPECTS(rank() == 2);
  DTMSV_EXPECTS(r < shape_[0] && c < shape_[1]);
  return data_[r * shape_[1] + c];
}

float Tensor::at2(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at2(r, c);
}

float& Tensor::at3(std::size_t n, std::size_t c, std::size_t l) {
  DTMSV_EXPECTS(rank() == 3);
  DTMSV_EXPECTS(n < shape_[0] && c < shape_[1] && l < shape_[2]);
  return data_[(n * shape_[1] + c) * shape_[2] + l];
}

float Tensor::at3(std::size_t n, std::size_t c, std::size_t l) const {
  return const_cast<Tensor*>(this)->at3(n, c, l);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  DTMSV_EXPECTS_MSG(element_count(new_shape) == data_.size(),
                    "reshape must preserve element count");
  return Tensor(std::move(new_shape), data_);
}

void Tensor::resize(const Shape& shape) { resize_to({shape.data(), shape.size()}); }

void Tensor::resize(std::initializer_list<std::size_t> shape) {
  resize_to({shape.begin(), shape.size()});
}

void Tensor::resize_to(std::span<const std::size_t> shape) {
  for (const std::size_t d : shape) {
    DTMSV_EXPECTS_MSG(d > 0, "tensor dimensions must be positive");
  }
  // assign() reuses the shape vector's storage: no allocation once warm.
  shape_.assign(shape.begin(), shape.end());
  data_.resize(element_count(shape_));
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

Tensor& Tensor::operator+=(const Tensor& other) {
  DTMSV_EXPECTS_MSG(same_shape(*this, other), "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  DTMSV_EXPECTS_MSG(same_shape(*this, other), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) {
    v *= scalar;
  }
  return *this;
}

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::mean() const {
  DTMSV_EXPECTS(!data_.empty());
  return sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (const float v : data_) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

namespace {

// The row kernels live in nn/kernels.hpp, templated on the SIMD backend;
// the entry points here instantiate the build's default backend (lanes =
// output columns, per-element ascending-kk chains — bit-identical across
// backends, tile sizes, and thread counts).
using Backend = util::simd::default_backend;

// Row blocks below this many multiply-adds run on the calling thread;
// parallel dispatch overhead would dominate smaller products.
constexpr std::size_t kParallelFlops = 1u << 17;

std::size_t row_grain(std::size_t per_row_flops) {
  return std::max<std::size_t>(1, kParallelFlops / std::max<std::size_t>(1, per_row_flops));
}

// matmul_bt on this many output rows or more transposes b once and runs
// the vector axpy kernel over the transposed operand — same per-element
// ascending-kk chain as the dot-product form, so the two paths agree
// bit-for-bit and the cutoff is purely a performance choice. Below it
// (the 1-row DDQN act/q_values forwards) the transpose would cost more
// than the product.
constexpr std::size_t kBtTransposeMinRows = 8;

/// Scratch for matmul_bt's transposed b, reused across calls on the
/// calling thread (the parallel row loop only reads it).
std::vector<float>& transpose_scratch(std::size_t n) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  return scratch;
}

/// Shapes `out` as m×n zeros for the accumulating kernels. An empty
/// tensor's new storage is zero-filled by resize() already, so only
/// reused storage is cleared.
void zeroed(Tensor& out, std::size_t m, std::size_t n) {
  const bool fresh = out.empty();
  out.resize({m, n});
  if (!fresh) {
    out.zero();
  }
}

}  // namespace

void Tensor::matmul(const Tensor& a, const Tensor& b, Tensor& out) {
  DTMSV_EXPECTS(a.rank() == 2 && b.rank() == 2);
  DTMSV_EXPECTS_MSG(a.dim(1) == b.dim(0), "inner dimensions must agree");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  zeroed(out, m, n);
  const float* ap = a.data_.data();
  const float* bp = b.data_.data();
  float* op = out.data_.data();
  util::parallel_for(0, m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
    kernels::matmul_rows<Backend>(ap, bp, op, i0, i1, k, n);
  });
}

void Tensor::matmul_bt(const Tensor& a, const Tensor& b, Tensor& out) {
  DTMSV_EXPECTS(a.rank() == 2 && b.rank() == 2);
  DTMSV_EXPECTS_MSG(a.dim(1) == b.dim(1), "inner dimensions must agree (b transposed)");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  zeroed(out, m, n);
  const float* ap = a.data_.data();
  const float* bp = b.data_.data();
  float* op = out.data_.data();
  if (m >= kBtTransposeMinRows) {
    // Batch path: transpose b once, then the product is a plain a · bᵗ
    // matmul on contiguous columns the vector kernel can eat. Narrow
    // outputs (a head with fewer units than a pack has lanes) stay on this
    // path too: the row-blocked kernel runs their column tail on narrower
    // packs, a block of rows at a time.
    float* btp = transpose_scratch(k * n).data();
    kernels::transpose(bp, btp, n, k);
    util::parallel_for(0, m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
      kernels::matmul_rows<Backend>(ap, btp, op, i0, i1, k, n);
    });
    return;
  }
  util::parallel_for(0, m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
    kernels::matmul_bt_rows(ap, bp, op, i0, i1, k, n);
  });
}

void Tensor::matmul_at(const Tensor& a, const Tensor& b, Tensor& out) {
  DTMSV_EXPECTS(a.rank() == 2 && b.rank() == 2);
  DTMSV_EXPECTS_MSG(a.dim(0) == b.dim(0), "inner dimensions must agree (a transposed)");
  const std::size_t k = a.dim(0);
  const std::size_t m = a.dim(1);
  const std::size_t n = b.dim(1);
  zeroed(out, m, n);
  const float* ap = a.data_.data();
  const float* bp = b.data_.data();
  float* op = out.data_.data();
  util::parallel_for(0, m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
    kernels::matmul_at_rows<Backend>(ap, bp, op, i0, i1, k, m, n);
  });
}

Tensor Tensor::matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul(a, b, out);
  return out;
}

Tensor Tensor::matmul_bt(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_bt(a, b, out);
  return out;
}

Tensor Tensor::matmul_at(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_at(a, b, out);
  return out;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

bool same_shape(const Tensor& a, const Tensor& b) { return a.shape() == b.shape(); }

}  // namespace dtmsv::nn
