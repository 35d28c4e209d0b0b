#include "nn/tensor.hpp"

#include <gtest/gtest.h>

namespace mocha::nn {
namespace {

TEST(Tensor, ZeroInitialized) {
  ValueTensor t({1, 2, 3, 4});
  EXPECT_EQ(t.size(), 24);
  for (Index i = 0; i < t.size(); ++i) EXPECT_EQ(t.flat(i), 0);
}

TEST(Tensor, NchwLayout) {
  ValueTensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 77;
  // Row-major NCHW: offset = ((n*C + c)*H + h)*W + w.
  EXPECT_EQ(t.flat(((1 * 3 + 2) * 4 + 3) * 5 + 4), 77);
}

TEST(Tensor, AccessorsAgree) {
  ValueTensor t({1, 1, 2, 2});
  t(0, 0, 1, 0) = 5;
  EXPECT_EQ(t.at(0, 0, 1, 0), 5);
}

TEST(Tensor, OutOfRangeAccessThrows) {
  ValueTensor t({1, 2, 3, 4});
  EXPECT_THROW(t.at(0, 0, 0, 4), util::CheckFailure);
  EXPECT_THROW(t.at(0, 2, 0, 0), util::CheckFailure);
  EXPECT_THROW(t.at(-1, 0, 0, 0), util::CheckFailure);
  EXPECT_THROW(t.flat(24), util::CheckFailure);
  EXPECT_THROW(t.flat(-1), util::CheckFailure);
}

TEST(Tensor, ConstructFromData) {
  std::vector<Value> data = {1, 2, 3, 4, 5, 6};
  ValueTensor t({1, 1, 2, 3}, data);
  EXPECT_EQ(t.at(0, 0, 1, 2), 6);
}

TEST(Tensor, ConstructFromWrongSizeThrows) {
  std::vector<Value> data = {1, 2, 3};
  EXPECT_THROW(ValueTensor({1, 1, 2, 3}, data), util::CheckFailure);
}

TEST(Tensor, SparsityCountsZeros) {
  ValueTensor t({1, 1, 1, 4}, {0, 5, 0, 0});
  EXPECT_DOUBLE_EQ(t.sparsity(), 0.75);
  t.fill(1);
  EXPECT_DOUBLE_EQ(t.sparsity(), 0.0);
}

TEST(Tensor, SparsityIsTheSameAtEveryPoolWidth) {
  // Three whole chunks and a partial one, so the count runs on the pool.
  const Index n = 3 * ValueTensor::kSparsityChunk + 5;
  ValueTensor t({1, 1, 1, n});
  std::size_t zeros = 0;
  for (Index i = 0; i < n; ++i) {
    const bool zero = i % 3 == 0 || (i > 1000 && i < 1200) || i >= n - 3;
    t.flat(i) = zero ? Value{0} : static_cast<Value>(i % 251 + 1);
    zeros += zero;
  }
  const double want = static_cast<double>(zeros) / static_cast<double>(n);
  const int original = util::ThreadPool::global_threads();
  for (int width : {1, 2, 3, 8}) {
    util::ThreadPool::set_global_threads(width);
    EXPECT_EQ(t.sparsity(), want) << "pool width " << width;
  }
  util::ThreadPool::set_global_threads(original);
}

TEST(Tensor, EqualityIsElementwise) {
  ValueTensor a({1, 1, 1, 2}, {1, 2});
  ValueTensor b({1, 1, 1, 2}, {1, 2});
  ValueTensor c({1, 1, 1, 2}, {1, 3});
  ValueTensor d({1, 1, 2, 1}, {1, 2});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);  // same data, different shape
}

TEST(Tensor, ShapeElems) {
  Shape4 s{2, 3, 5, 7};
  EXPECT_EQ(s.elems(), 210);
}

TEST(Tensor, EmptyDefaultTensor) {
  ValueTensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
}

}  // namespace
}  // namespace mocha::nn
