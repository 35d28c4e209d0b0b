// Dense 4-D tensors in NCHW layout.
//
// All functional-mode data (feature maps, kernels) lives in Tensor4. The
// simulator's performance mode never touches element data — it only needs
// shapes and sparsity statistics — so this type stays deliberately simple:
// owning, contiguous, bounds-checked access.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace mocha::nn {

using Index = std::int64_t;

/// Elements of p[0, n) not equal to T{}. The fixed-length inner loop is what
/// lets the compiler vectorize the count at -O2.
template <typename T>
std::size_t count_nonzeros(const T* p, std::size_t n) {
  constexpr std::size_t kRun = 64;
  std::size_t nonzeros = 0;
  std::size_t i = 0;
  for (; i + kRun <= n; i += kRun) {
    unsigned run = 0;
    for (std::size_t j = 0; j < kRun; ++j) run += p[i + j] != T{};
    nonzeros += run;
  }
  for (; i < n; ++i) nonzeros += p[i] != T{};
  return nonzeros;
}

/// NCHW shape. For weight tensors the convention is
/// n = output channels, c = input channels, h = w = kernel size.
struct Shape4 {
  Index n = 1;
  Index c = 1;
  Index h = 1;
  Index w = 1;

  Index elems() const { return n * c * h * w; }

  bool operator==(const Shape4&) const = default;
};

template <typename T>
class Tensor4 {
 public:
  Tensor4() : shape_{0, 0, 0, 0} {}

  explicit Tensor4(Shape4 shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.elems()), T{}) {
    MOCHA_CHECK(shape.n >= 0 && shape.c >= 0 && shape.h >= 0 && shape.w >= 0,
                "negative dimension");
  }

  Tensor4(Shape4 shape, std::vector<T> data)
      : shape_(shape), data_(std::move(data)) {
    MOCHA_CHECK(static_cast<Index>(data_.size()) == shape.elems(),
                "data size " << data_.size() << " != shape elems "
                             << shape.elems());
  }

  const Shape4& shape() const { return shape_; }
  Index size() const { return shape_.elems(); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Bounds-checked element access.
  T& at(Index n, Index c, Index h, Index w) {
    return data_[static_cast<std::size_t>(offset(n, c, h, w))];
  }
  const T& at(Index n, Index c, Index h, Index w) const {
    return data_[static_cast<std::size_t>(offset(n, c, h, w))];
  }

  T& operator()(Index n, Index c, Index h, Index w) { return at(n, c, h, w); }
  const T& operator()(Index n, Index c, Index h, Index w) const {
    return at(n, c, h, w);
  }

  /// Unchecked element access for verified-hot inner loops (executor and
  /// reference kernels, whose loop bounds are already range-checked once per
  /// tile). Everything else should stay on at().
  T& at_unchecked(Index n, Index c, Index h, Index w) {
    return data_[static_cast<std::size_t>(
        ((n * shape_.c + c) * shape_.h + h) * shape_.w + w)];
  }
  const T& at_unchecked(Index n, Index c, Index h, Index w) const {
    return data_[static_cast<std::size_t>(
        ((n * shape_.c + c) * shape_.h + h) * shape_.w + w)];
  }

  /// Pointer to row (n, c, h, 0..w): the innermost-x stride-1 walk of the
  /// hot loops, bounds-checked once at the row rather than per element.
  const T* row(Index n, Index c, Index h) const {
    return &at(n, c, h, 0);
  }

  /// Flat (row-major NCHW) access, bounds-checked.
  T& flat(Index i) {
    MOCHA_CHECK(i >= 0 && i < size(), "flat index " << i << " of " << size());
    return data_[static_cast<std::size_t>(i)];
  }
  const T& flat(Index i) const {
    MOCHA_CHECK(i >= 0 && i < size(), "flat index " << i << " of " << size());
    return data_[static_cast<std::size_t>(i)];
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Elements per chunk of the sparsity count.
  static constexpr Index kSparsityChunk = Index{1} << 15;

  /// Fraction of elements equal to zero (used to drive compression models).
  /// Counted in kSparsityChunk-element chunks on the global pool (inline
  /// for a single chunk); the chunks' integer counts are summed before the
  /// one division, so the result does not depend on the pool width.
  double sparsity() const {
    if (data_.empty()) return 0.0;
    const Index n = size();
    const Index chunks = (n + kSparsityChunk - 1) / kSparsityChunk;
    const std::vector<std::size_t> nonzeros =
        util::parallel_transform<std::size_t>(
            chunks, util::default_grain(chunks), [&](Index chunk) {
              const Index begin = chunk * kSparsityChunk;
              return count_nonzeros(
                  data_.data() + begin,
                  static_cast<std::size_t>(
                      std::min(kSparsityChunk, n - begin)));
            });
    const auto zeros =
        static_cast<std::size_t>(n) -
        std::accumulate(nonzeros.begin(), nonzeros.end(), std::size_t{0});
    return static_cast<double>(zeros) / static_cast<double>(n);
  }

  bool operator==(const Tensor4& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

  const std::vector<T>& storage() const { return data_; }

 private:
  Index offset(Index n, Index c, Index h, Index w) const {
    MOCHA_CHECK(n >= 0 && n < shape_.n && c >= 0 && c < shape_.c && h >= 0 &&
                    h < shape_.h && w >= 0 && w < shape_.w,
                "index (" << n << "," << c << "," << h << "," << w
                          << ") out of shape (" << shape_.n << "," << shape_.c
                          << "," << shape_.h << "," << shape_.w << ")");
    return ((n * shape_.c + c) * shape_.h + h) * shape_.w + w;
  }

  Shape4 shape_;
  std::vector<T> data_;
};

/// Element type used for feature maps and kernels throughout the fabric:
/// 16-bit fixed point, the precision class the 2016/17 embedded CNN
/// accelerators (including the DRRA fabric MOCHA builds on) operate at.
using Value = std::int16_t;
/// Accumulator wide enough for K*K*C MACs of Value operands.
using Accum = std::int64_t;

using ValueTensor = Tensor4<Value>;
using AccumTensor = Tensor4<Accum>;

}  // namespace mocha::nn
