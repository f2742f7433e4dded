#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/expects.hpp"

namespace veritas::util {
namespace {

const std::vector<double> kSample{4.0, 1.0, 3.0, 2.0, 5.0};

TEST(Stats, Mean) { EXPECT_DOUBLE_EQ(mean(kSample), 3.0); }

TEST(Stats, MeanSingleElement) {
  const std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(mean(one), 7.5);
}

TEST(Stats, MeanRejectsEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), ContractViolation);
}

TEST(Stats, VarianceUnbiased) {
  // Known: sample variance of {1..5} is 2.5.
  EXPECT_DOUBLE_EQ(variance(kSample), 2.5);
}

TEST(Stats, VarianceNeedsTwo) {
  const std::vector<double> one{1.0};
  EXPECT_THROW(variance(one), ContractViolation);
}

TEST(Stats, StddevIsSqrtVariance) {
  EXPECT_DOUBLE_EQ(stddev(kSample) * stddev(kSample), 2.5);
}

TEST(Stats, MedianOdd) { EXPECT_DOUBLE_EQ(median(kSample), 3.0); }

TEST(Stats, MedianEvenInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  EXPECT_DOUBLE_EQ(quantile(kSample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(kSample, 1.0), 5.0);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Stats, QuantileRejectsOutOfRange) {
  EXPECT_THROW(quantile(kSample, 1.5), ContractViolation);
  EXPECT_THROW(quantile(kSample, -0.1), ContractViolation);
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(min(kSample), 1.0);
  EXPECT_DOUBLE_EQ(max(kSample), 5.0);
}

TEST(Stats, BoxplotFiveNumbers) {
  const BoxplotStats b = boxplot(kSample);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  EXPECT_DOUBLE_EQ(b.max, 5.0);
  EXPECT_EQ(b.count, 5u);
}

TEST(Stats, BoxplotToString) {
  const BoxplotStats b = boxplot(kSample);
  EXPECT_EQ(to_string(b), "1/2/3/4/5 (n=5)");
}

TEST(Stats, EmpiricalCdfEndpoints) {
  const auto cdf = empirical_cdf(kSample, 5);
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  const std::vector<double> v{5, 1, 4, 1, 3, 9, 2, 6, 8, 7};
  const auto cdf = empirical_cdf(v, 7);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(Stats, EmpiricalCdfDownsamples) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i);
  EXPECT_LE(empirical_cdf(v, 50).size(), 50u);
}

TEST(Stats, MaeAndRmse) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(mean_absolute_error(a, b), 1.0);
  EXPECT_NEAR(rmse(a, b), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MaeRejectsMismatch) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(mean_absolute_error(a, b), ContractViolation);
}

// Property sweep: quantile is monotone in q for arbitrary data.
class QuantileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  std::vector<double> v;
  // Unsigned, so the LCG wraps instead of overflowing a signed int.
  auto x = static_cast<std::uint32_t>(GetParam());
  for (int i = 0; i < 50; ++i) {
    x = (x * 1103515245u + 12345u) & 0x7fffffffu;
    v.push_back(double(x % 1000));
  }
  double prev = quantile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace veritas::util
