/// Unit and property tests for the math library: Grid, FFT, convolution,
/// eigensolver, stats.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "litho/tcc.hpp"
#include "math/convolution.hpp"
#include "math/eigen.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "math/resample.hpp"
#include "math/stats.hpp"
#include "support/rng.hpp"

namespace mosaic {
namespace {

using Cplx = std::complex<double>;
constexpr double kPi = 3.14159265358979323846;

ComplexGrid randomComplexGrid(int rows, int cols, Rng& rng) {
  ComplexGrid g(rows, cols);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return g;
}

RealGrid randomRealGrid(int rows, int cols, Rng& rng) {
  RealGrid g(rows, cols);
  for (auto& v : g) v = rng.uniform(-1, 1);
  return g;
}

// ----------------------------------------------------------------- grid

TEST(Grid, ConstructionAndAccess) {
  RealGrid g(3, 4, 1.5);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g(2, 3), 1.5);
  g(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(g.at(1, 2), 7.0);
}

TEST(Grid, AtThrowsOutOfBounds) {
  RealGrid g(2, 2);
  EXPECT_THROW(g.at(2, 0), InvalidArgument);
  EXPECT_THROW(g.at(0, -1), InvalidArgument);
}

TEST(Grid, NonPositiveDimensionsThrow) {
  EXPECT_THROW(RealGrid(0, 3), InvalidArgument);
  EXPECT_THROW(RealGrid(3, -1), InvalidArgument);
}

TEST(Grid, SameShapeAndEquality) {
  RealGrid a(2, 3, 1.0);
  RealGrid b(2, 3, 1.0);
  RealGrid c(3, 2, 1.0);
  EXPECT_TRUE(a.sameShape(b));
  EXPECT_FALSE(a.sameShape(c));
  EXPECT_EQ(a, b);
  b(0, 0) = 2.0;
  EXPECT_NE(a, b);
}

TEST(Grid, Conversions) {
  RealGrid r(2, 2);
  r(0, 0) = 1.0;
  r(1, 1) = -2.0;
  const ComplexGrid c = toComplex(r);
  EXPECT_EQ(c(0, 0), Cplx(1.0, 0.0));
  const RealGrid back = realPart(c);
  EXPECT_EQ(back, r);
  const RealGrid mag = squaredMagnitude(c);
  EXPECT_DOUBLE_EQ(mag(1, 1), 4.0);
}

TEST(Grid, ThresholdAndBitConversion) {
  RealGrid r(1, 3);
  r(0, 0) = 0.1;
  r(0, 1) = 0.5;
  r(0, 2) = 0.9;
  const BitGrid b = thresholdGrid(r, 0.5);
  EXPECT_EQ(b(0, 0), 0u);
  EXPECT_EQ(b(0, 1), 0u);  // strict >
  EXPECT_EQ(b(0, 2), 1u);
  const RealGrid rr = toReal(b);
  EXPECT_DOUBLE_EQ(rr(0, 2), 1.0);
}

// ---------------------------------------------------------------- stats

TEST(Stats, RmsSumMaxAbs) {
  RealGrid g(1, 4);
  g(0, 0) = 1;
  g(0, 1) = -1;
  g(0, 2) = 1;
  g(0, 3) = -1;
  EXPECT_DOUBLE_EQ(rms(g), 1.0);
  EXPECT_DOUBLE_EQ(sum(g), 0.0);
  EXPECT_DOUBLE_EQ(maxAbs(g), 1.0);
}

TEST(Stats, Popcount) {
  BitGrid g(2, 2, 0);
  g(0, 1) = 1;
  g(1, 1) = 1;
  EXPECT_EQ(popcount(g), 2);
}

// ----------------------------------------------------------------- fft

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), InvalidArgument);
  EXPECT_THROW(FftPlan(3), InvalidArgument);
  EXPECT_THROW(FftPlan(12), InvalidArgument);
  EXPECT_NO_THROW(FftPlan(16));
}

TEST(FftPlan, SizeOneIsIdentity) {
  FftPlan plan(1);
  Cplx x[1] = {{3.0, -2.0}};
  plan.forward(x);
  EXPECT_EQ(x[0], Cplx(3.0, -2.0));
  plan.inverse(x);
  EXPECT_EQ(x[0], Cplx(3.0, -2.0));
}

TEST(FftPlan, DeltaTransformsToAllOnes) {
  FftPlan plan(8);
  std::vector<Cplx> x(8, {0, 0});
  x[0] = {1, 0};
  plan.forward(x.data());
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftPlan, ConstantTransformsToDcSpike) {
  FftPlan plan(8);
  std::vector<Cplx> x(8, {2.0, 0});
  plan.forward(x.data());
  EXPECT_NEAR(x[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-12);
}

TEST(FftPlan, SinePeaksAtItsBin) {
  const std::size_t n = 64;
  FftPlan plan(n);
  std::vector<Cplx> x(n);
  const int bin = 5;
  for (std::size_t j = 0; j < n; ++j) {
    x[j] = {std::cos(2 * kPi * bin * static_cast<double>(j) / n), 0.0};
  }
  plan.forward(x.data());
  EXPECT_NEAR(x[static_cast<std::size_t>(bin)].real(), n / 2.0, 1e-9);
  EXPECT_NEAR(x[n - bin].real(), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[0]), 0.0, 1e-9);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseOfForwardIsIdentity) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n * 977 + 1);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Cplx> y = x;
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n * 31 + 7);
  std::vector<Cplx> x(n);
  double timeEnergy = 0.0;
  for (auto& v : x) {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    timeEnergy += std::norm(v);
  }
  plan.forward(x.data());
  double freqEnergy = 0.0;
  for (const auto& v : x) freqEnergy += std::norm(v);
  EXPECT_NEAR(freqEnergy / static_cast<double>(n), timeEnergy,
              1e-9 * timeEnergy + 1e-12);
}

TEST_P(FftRoundTrip, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  if (n > 64) GTEST_SKIP() << "naive DFT too slow";
  FftPlan plan(n);
  Rng rng(n + 5);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Cplx> naive(n, {0, 0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double a = -2 * kPi * static_cast<double>(k * j % n) / n;
      naive[k] += x[j] * Cplx{std::cos(a), std::sin(a)};
    }
  }
  plan.forward(x.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), naive[k].real(), 1e-9);
    EXPECT_NEAR(x[k].imag(), naive[k].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft2d, RoundTripAndShapeChecks) {
  Fft2d fft(8, 16);
  Rng rng(42);
  ComplexGrid g = randomComplexGrid(8, 16, rng);
  ComplexGrid copy = g;
  fft.forward(g);
  fft.inverse(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g.data()[i].real(), copy.data()[i].real(), 1e-10);
    EXPECT_NEAR(g.data()[i].imag(), copy.data()[i].imag(), 1e-10);
  }
  ComplexGrid bad(4, 4);
  EXPECT_THROW(fft.forward(bad), InvalidArgument);
}

TEST(Fft2d, TwoDimDeltaIsFlat) {
  Fft2d fft(4, 4);
  ComplexGrid g(4, 4, {0, 0});
  g(0, 0) = {1, 0};
  fft.forward(g);
  for (const auto& v : g) EXPECT_NEAR(std::abs(v - Cplx{1, 0}), 0.0, 1e-12);
}

TEST(Fft2d, SeparableProductMatches1d) {
  const int n = 8;
  Rng rng(3);
  std::vector<Cplx> row(n);
  std::vector<Cplx> col(n);
  for (auto& v : row) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : col) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  ComplexGrid g(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      g(r, c) = col[static_cast<std::size_t>(r)] * row[static_cast<std::size_t>(c)];
    }
  }
  Fft2d fft(n, n);
  fft.forward(g);
  FftPlan plan(n);
  std::vector<Cplx> rowF = row;
  std::vector<Cplx> colF = col;
  plan.forward(rowF.data());
  plan.forward(colF.data());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const Cplx want = colF[static_cast<std::size_t>(r)] *
                        rowF[static_cast<std::size_t>(c)];
      EXPECT_NEAR(std::abs(g(r, c) - want), 0.0, 1e-9);
    }
  }
}

TEST(Fft2d, SharedCacheReturnsSameInstance) {
  const Fft2d& a = fft2dFor(16, 16);
  const Fft2d& b = fft2dFor(16, 16);
  EXPECT_EQ(&a, &b);
  const Fft2d& c = fft2dFor(16, 32);
  EXPECT_NE(&a, &c);
}

// ---------------------------------------------------------- convolution

class ConvolutionSizes : public ::testing::TestWithParam<int> {};

TEST_P(ConvolutionSizes, FftMatchesDirect) {
  const int n = GetParam();
  Rng rng(n * 13 + 1);
  const ComplexGrid a = randomComplexGrid(n, n, rng);
  const ComplexGrid b = randomComplexGrid(n, n, rng);
  const ComplexGrid fast = cyclicConvolve(a, b);
  const ComplexGrid slow = directCyclicConvolve(a, b);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(std::abs(fast.data()[i] - slow.data()[i]), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvolutionSizes, ::testing::Values(2, 4, 8, 16));

TEST(Convolution, DeltaIsIdentity) {
  Rng rng(5);
  const int n = 8;
  const ComplexGrid a = randomComplexGrid(n, n, rng);
  ComplexGrid delta(n, n, {0, 0});
  delta(0, 0) = {1, 0};
  const ComplexGrid out = cyclicConvolve(a, delta);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(out.data()[i] - a.data()[i]), 0.0, 1e-10);
  }
}

TEST(Convolution, ShiftedDeltaShiftsCyclically) {
  const int n = 4;
  ComplexGrid a(n, n, {0, 0});
  a(1, 2) = {1, 0};
  ComplexGrid delta(n, n, {0, 0});
  delta(2, 3) = {1, 0};
  const ComplexGrid out = cyclicConvolve(a, delta);
  // (1+2, 2+3) mod 4 = (3, 1)
  EXPECT_NEAR(std::abs(out(3, 1) - Cplx{1, 0}), 0.0, 1e-10);
  double total = 0.0;
  for (const auto& v : out) total += std::abs(v);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Convolution, FlippedSpectrumIsInvolution) {
  Rng rng(11);
  const ComplexGrid s = randomComplexGrid(8, 8, rng);
  const ComplexGrid twice = flippedSpectrum(flippedSpectrum(s));
  EXPECT_EQ(twice, s);
}

TEST(Convolution, FlippedSpectrumMatchesSpatialFlip) {
  // FFT of h(-x) equals the index-flipped FFT of h.
  const int n = 8;
  Rng rng(17);
  ComplexGrid h = randomComplexGrid(n, n, rng);
  ComplexGrid hFlip(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      hFlip(r, c) = h((n - r) % n, (n - c) % n);
    }
  }
  const Fft2d& fft = fft2dFor(n, n);
  ComplexGrid hHat = h;
  ComplexGrid hFlipHat = hFlip;
  fft.forward(hHat);
  fft.forward(hFlipHat);
  const ComplexGrid flippedHat = flippedSpectrum(hHat);
  for (std::size_t i = 0; i < hHat.size(); ++i) {
    EXPECT_NEAR(std::abs(hFlipHat.data()[i] - flippedHat.data()[i]), 0.0,
                1e-9);
  }
}

TEST(Convolution, ConjugateSpectrum) {
  Rng rng(19);
  const ComplexGrid s = randomComplexGrid(4, 4, rng);
  const ComplexGrid c = conjugateSpectrum(s);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(c.data()[i], std::conj(s.data()[i]));
  }
}

TEST(Convolution, SpectrumConvolutionPathsAgree) {
  const int n = 16;
  Rng rng(23);
  const ComplexGrid signal = randomComplexGrid(n, n, rng);
  ComplexGrid kernel = randomComplexGrid(n, n, rng);
  const Fft2d& fft = fft2dFor(n, n);
  ComplexGrid kernelHat = kernel;
  fft.forward(kernelHat);
  const ComplexGrid viaSpectrum = convolveWithSpectrum(signal, kernelHat);
  const ComplexGrid direct = cyclicConvolve(signal, kernel);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(std::abs(viaSpectrum.data()[i] - direct.data()[i]), 0.0, 1e-9);
  }
}

TEST(Convolution, ShapeMismatchThrows) {
  ComplexGrid a(4, 4);
  ComplexGrid b(8, 8);
  EXPECT_THROW(cyclicConvolve(a, b), InvalidArgument);
  EXPECT_THROW(multiplySpectra(a, b), InvalidArgument);
}

// ------------------------------------------------------------- resample

TEST(Resample, DownsampleMeanAveragesBlocks) {
  RealGrid fine(4, 4, 0.0);
  fine(0, 0) = 4.0;  // block (0,0): {4,0,0,0} -> 1.0
  fine(2, 2) = 1.0;
  fine(2, 3) = 1.0;
  fine(3, 2) = 1.0;
  fine(3, 3) = 1.0;  // block (1,1): all ones -> 1.0
  const RealGrid coarse = downsampleMean(fine, 2);
  EXPECT_EQ(coarse.rows(), 2);
  EXPECT_DOUBLE_EQ(coarse(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(coarse(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(coarse(1, 1), 1.0);
}

TEST(Resample, DownsampleMajorityThreshold) {
  BitGrid fine(2, 4, 0);
  fine(0, 0) = 1;
  fine(1, 0) = 1;  // left block: 2/4 -> set (>= half)
  fine(0, 2) = 1;  // right block: 1/4 -> clear
  const BitGrid coarse = downsampleMajority(fine, 2);
  EXPECT_EQ(coarse(0, 0), 1u);
  EXPECT_EQ(coarse(0, 1), 0u);
}

TEST(Resample, UpsampleReplicatesPixels) {
  RealGrid coarse(2, 2);
  coarse(0, 0) = 1.0;
  coarse(0, 1) = 2.0;
  coarse(1, 0) = 3.0;
  coarse(1, 1) = 4.0;
  const RealGrid fine = upsampleNearest(coarse, 3);
  EXPECT_EQ(fine.rows(), 6);
  EXPECT_DOUBLE_EQ(fine(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(fine(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(fine(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(fine(5, 5), 4.0);
}

TEST(Resample, UpsampleThenDownsampleIsIdentity) {
  Rng rng(71);
  const RealGrid coarse = randomRealGrid(8, 8, rng);
  const RealGrid roundTrip = downsampleMean(upsampleNearest(coarse, 4), 4);
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    EXPECT_NEAR(roundTrip.data()[i], coarse.data()[i], 1e-12);
  }
}

TEST(Resample, ValidationErrors) {
  RealGrid g(6, 6);
  EXPECT_THROW(downsampleMean(g, 4), InvalidArgument);  // not divisible
  EXPECT_THROW(downsampleMean(g, 0), InvalidArgument);
  EXPECT_THROW(upsampleNearest(g, 0), InvalidArgument);
}

// ------------------------------------------------------------- gaussian

TEST(GaussianBlur, ZeroSigmaIsIdentity) {
  Rng rng(31);
  const RealGrid g = randomRealGrid(8, 8, rng);
  EXPECT_EQ(gaussianBlur(g, 0.0), g);
  EXPECT_EQ(gaussianBlur(g, -1.0), g);
}

TEST(GaussianBlur, PreservesMeanAndReducesVariance) {
  Rng rng(37);
  const int n = 32;
  RealGrid g = randomRealGrid(n, n, rng);
  const double meanBefore = sum(g) / static_cast<double>(g.size());
  const RealGrid b = gaussianBlur(g, 2.0);
  const double meanAfter = sum(b) / static_cast<double>(b.size());
  EXPECT_NEAR(meanAfter, meanBefore, 1e-10);
  double varBefore = 0.0;
  double varAfter = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    varBefore += (g.data()[i] - meanBefore) * (g.data()[i] - meanBefore);
    varAfter += (b.data()[i] - meanAfter) * (b.data()[i] - meanAfter);
  }
  EXPECT_LT(varAfter, 0.5 * varBefore);
}

TEST(GaussianBlur, SpreadsADelta) {
  const int n = 32;
  RealGrid g(n, n, 0.0);
  g(16, 16) = 1.0;
  const RealGrid b = gaussianBlur(g, 1.5);
  EXPECT_LT(b(16, 16), 1.0);
  EXPECT_GT(b(16, 16), b(16, 18));
  EXPECT_GT(b(16, 18), 0.0);
  // Radially symmetric around the impulse.
  EXPECT_NEAR(b(16, 18), b(18, 16), 1e-12);
  EXPECT_NEAR(b(16, 14), b(16, 18), 1e-12);
}

TEST(GaussianBlur, SelfAdjoint) {
  // <Blur(a), b> == <a, Blur(b)> -- the property the ILT gradient chain
  // relies on when resist diffusion is enabled.
  Rng rng(41);
  const int n = 16;
  const RealGrid a = randomRealGrid(n, n, rng);
  const RealGrid b = randomRealGrid(n, n, rng);
  const RealGrid ba = gaussianBlur(a, 1.2);
  const RealGrid bb = gaussianBlur(b, 1.2);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    lhs += ba.data()[i] * b.data()[i];
    rhs += a.data()[i] * bb.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::fabs(lhs)));
}

// ---------------------------------------------------------------- eigen

using CplxMatrix = std::vector<Cplx>;  // row-major n x n

Cplx& entry(CplxMatrix& h, int n, int r, int c) {
  return h[static_cast<std::size_t>(r) * n + c];
}

CplxMatrix randomHermitian(int n, Rng& rng, bool real = false) {
  CplxMatrix h(static_cast<std::size_t>(n) * n);
  for (int r = 0; r < n; ++r) {
    entry(h, n, r, r) = {rng.uniform(-1, 1), 0.0};
    for (int c = r + 1; c < n; ++c) {
      const Cplx v{rng.uniform(-1, 1), real ? 0.0 : rng.uniform(-1, 1)};
      entry(h, n, r, c) = v;
      entry(h, n, c, r) = std::conj(v);
    }
  }
  return h;
}

/// Columns of a random n x n unitary (Gram-Schmidt of uniform random columns).
std::vector<std::vector<Cplx>> randomUnitary(int n, Rng& rng) {
  std::vector<std::vector<Cplx>> q(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    auto& col = q[static_cast<std::size_t>(j)];
    col.resize(static_cast<std::size_t>(n));
    for (auto& z : col) z = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (int p = 0; p < j; ++p) {
      Cplx dot{0, 0};
      for (int i = 0; i < n; ++i) dot += std::conj(q[p][i]) * col[i];
      for (int i = 0; i < n; ++i) col[i] -= dot * q[p][i];
    }
    double len = 0.0;
    for (const auto& z : col) len += std::norm(z);
    for (auto& z : col) z /= std::sqrt(len);
  }
  return q;
}

/// H = sum_j lambda_j q_j q_j^H, exactly Hermitian.
CplxMatrix withSpectrum(const std::vector<double>& lambda,
                        const std::vector<std::vector<Cplx>>& q) {
  const int n = static_cast<int>(lambda.size());
  CplxMatrix h(static_cast<std::size_t>(n) * n, Cplx{0, 0});
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      Cplx acc{0, 0};
      for (int j = 0; j < n; ++j) {
        acc += lambda[j] * q[j][r] * std::conj(q[j][c]);
      }
      entry(h, n, r, c) = (r == c) ? Cplx{acc.real(), 0.0} : acc;
      entry(h, n, c, r) = std::conj(entry(h, n, r, c));
    }
  }
  return h;
}

/// max_{i,j} |v_i^H v_j - delta_ij|
double orthonormalityError(const HermitianEigenResult& e) {
  double worst = 0.0;
  for (std::size_t i = 0; i < e.eigenvectors.size(); ++i) {
    for (std::size_t j = i; j < e.eigenvectors.size(); ++j) {
      Cplx dot{0, 0};
      for (std::size_t r = 0; r < e.eigenvectors[i].size(); ++r) {
        dot += std::conj(e.eigenvectors[i][r]) * e.eigenvectors[j][r];
      }
      const Cplx want = i == j ? Cplx{1, 0} : Cplx{0, 0};
      worst = std::max(worst, std::abs(dot - want));
    }
  }
  return worst;
}

class EigenFullSpectrum : public ::testing::TestWithParam<int> {};

TEST_P(EigenFullSpectrum, ReconstructsWithOrthonormalVectors) {
  const int n = GetParam();
  Rng rng(n * 11 + 1);
  const CplxMatrix h = randomHermitian(n, rng);
  const auto res = leadingEigenpairsHermitian(h, n, n);
  ASSERT_EQ(res.eigenvalues.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(res.eigenvectors.size(), static_cast<std::size_t>(n));
  for (int j = 1; j < n; ++j) {
    EXPECT_GE(res.eigenvalues[j - 1], res.eigenvalues[j]);
  }
  // H = sum_k lambda_k v_k v_k^H
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      Cplx acc{0, 0};
      for (int k = 0; k < n; ++k) {
        acc += res.eigenvalues[k] * res.eigenvectors[k][r] *
               std::conj(res.eigenvectors[k][c]);
      }
      EXPECT_NEAR(std::abs(acc - h[static_cast<std::size_t>(r) * n + c]), 0.0,
                  1e-12 * n);
    }
  }
  EXPECT_LT(orthonormalityError(res), 1e-13 * n);
  EXPECT_LT(maxEigenResidual(h, n, res), 1e-13 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenFullSpectrum,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

TEST(Eigen, TopKOfDecayingPsdSpectrum) {
  // PSD matrix with a geometrically decaying spectrum, the shape of the
  // TCC operator the solver exists for.
  const int n = 60;
  const int k = 10;
  Rng rng(47);
  std::vector<double> lambda(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) lambda[j] = std::pow(0.7, j);
  const CplxMatrix h = withSpectrum(lambda, randomUnitary(n, rng));
  const auto top = leadingEigenpairsHermitian(h, n, k);
  ASSERT_EQ(top.eigenvalues.size(), static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    EXPECT_NEAR(top.eigenvalues[j], lambda[j], 1e-13);
  }
  EXPECT_LT(maxEigenResidual(h, n, top), 1e-13);
  EXPECT_LT(orthonormalityError(top), 1e-13);
}

/// Eigenvalues 4, 2.5, 1.5, 0.75, 0.5, 0.2 repeated 2, 3, 2, 3, 2, 3 times
/// (n = 15) on the eigenvectors `q`, drawn at random.
struct PlantedMultiplicities {
  std::vector<int> multiplicity = {2, 3, 2, 3, 2, 3};
  std::vector<double> lambda;
  std::vector<std::vector<Cplx>> q;
  CplxMatrix h;
  int n = 0;
};

PlantedMultiplicities plantedMultiplicities(Rng& rng) {
  const std::vector<double> distinct = {4.0, 2.5, 1.5, 0.75, 0.5, 0.2};
  PlantedMultiplicities p;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    p.lambda.insert(p.lambda.end(),
                    static_cast<std::size_t>(p.multiplicity[i]), distinct[i]);
  }
  p.n = static_cast<int>(p.lambda.size());
  p.q = randomUnitary(p.n, rng);
  p.h = withSpectrum(p.lambda, p.q);
  return p;
}

TEST(Eigen, RepeatedEigenvaluesGiveOrthonormalEigenspaces) {
  // Each eigenvalue repeated twice or three times: inverse iteration must
  // return an orthonormal basis of every eigenspace, not one vector twice.
  Rng rng(5);
  const PlantedMultiplicities planted = plantedMultiplicities(rng);
  const auto& [multiplicity, lambda, q, h, n] = planted;
  const int k = 10;  // ends on a cluster boundary (2 + 3 + 2 + 3)
  const auto res = leadingEigenpairsHermitian(h, n, k);
  ASSERT_EQ(res.eigenvalues.size(), static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) EXPECT_NEAR(res.eigenvalues[j], lambda[j], 1e-13);
  EXPECT_LT(orthonormalityError(res), 1e-13);
  EXPECT_LT(maxEigenResidual(h, n, res), 1e-13);
  // Each cluster's projector sum_j v_j v_j^H equals the planted one.
  int begin = 0;
  for (std::size_t cluster = 0; begin < k; ++cluster) {
    const int end = begin + multiplicity[cluster];
    double worst = 0.0;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        Cplx got{0, 0};
        Cplx want{0, 0};
        for (int j = begin; j < end; ++j) {
          got += res.eigenvectors[j][r] * std::conj(res.eigenvectors[j][c]);
          want += q[j][r] * std::conj(q[j][c]);
        }
        worst = std::max(worst, std::abs(got - want));
      }
    }
    EXPECT_LT(worst, 1e-12) << "cluster " << cluster;
    begin = end;
  }
}

TEST(Eigen, ResultNeverEndsInsideAnEigenspace) {
  Rng rng(5);
  const PlantedMultiplicities planted = plantedMultiplicities(rng);
  for (const auto& [asked, returned] :
       {std::pair{1, 2}, std::pair{2, 2}, std::pair{3, 5}, std::pair{6, 7},
        std::pair{15, 15}}) {
    const auto res = leadingEigenpairsHermitian(planted.h, planted.n, asked);
    EXPECT_EQ(res.eigenvalues.size(), static_cast<std::size_t>(returned))
        << "asked for " << asked;
    EXPECT_EQ(res.eigenvectors.size(), res.eigenvalues.size());
  }
}

TEST(Eigen, CanonicalBasisDependsOnlyOnTheEigenspace) {
  // Any unitary rotation of an eigenspace's basis canonicalizes back to the
  // solver's vectors, and the anchor sample sits on the first vector only.
  Rng rng(31);
  const PlantedMultiplicities planted = plantedMultiplicities(rng);
  const int anchor = 6;
  const auto res =
      leadingEigenpairsHermitian(planted.h, planted.n, planted.n, anchor);
  int begin = 0;
  for (const int d : planted.multiplicity) {
    const auto u = randomUnitary(d, rng);
    std::vector<std::vector<Cplx>> rotated(static_cast<std::size_t>(d));
    for (int j = 0; j < d; ++j) {
      rotated[j].assign(static_cast<std::size_t>(planted.n), Cplx{0, 0});
      for (int m = 0; m < d; ++m) {
        for (int i = 0; i < planted.n; ++i) {
          rotated[j][i] += u[j][m] * res.eigenvectors[begin + m][i];
        }
      }
    }
    canonicalEigenbasis(rotated, anchor);
    for (int j = 0; j < d; ++j) {
      const auto& v = res.eigenvectors[begin + j];
      double worst = 0.0;
      for (int i = 0; i < planted.n; ++i) {
        worst = std::max(worst, std::abs(rotated[j][i] - v[i]));
      }
      EXPECT_LT(worst, 1e-12) << "eigenspace at " << begin << ", vector " << j;
      if (j == 0) {
        EXPECT_EQ(v[anchor].imag(), 0.0);
        EXPECT_GT(v[anchor].real(), 1e-8);
      } else {
        EXPECT_LT(std::abs(v[anchor]), 1e-12);
      }
    }
    begin += d;
  }
}

TEST(Eigen, RealSymmetricInputGivesRealVectors) {
  const int n = 24;
  Rng rng(13);
  const CplxMatrix h = randomHermitian(n, rng, /*real=*/true);
  const auto res = leadingEigenpairsHermitian(h, n, 8);
  for (const auto& v : res.eigenvectors) {
    for (const Cplx& z : v) EXPECT_EQ(z.imag(), 0.0);
  }
  EXPECT_LT(maxEigenResidual(h, n, res), 1e-13 * n);
}

TEST(Eigen, RerunsAreBitIdentical) {
  const int n = 33;
  Rng rng(21);
  const CplxMatrix h = randomHermitian(n, rng);
  const auto first = leadingEigenpairsHermitian(h, n, 12, 3);
  const auto again = leadingEigenpairsHermitian(h, n, 12, 3);
  EXPECT_EQ(first.eigenvalues, again.eigenvalues);
  EXPECT_EQ(first.eigenvectors, again.eigenvectors);
}

TEST(Eigen, CanonicalPhaseRule) {
  const int n = 12;
  Rng rng(8);
  CplxMatrix h = randomHermitian(n, rng);
  // An anchor with a non-negligible sample is made real and positive.
  const int anchor = 4;
  const auto anchored = leadingEigenpairsHermitian(h, n, 5, anchor);
  for (const auto& v : anchored.eigenvectors) {
    ASSERT_GT(std::abs(v[anchor]), 1e-8);
    EXPECT_EQ(v[anchor].imag(), 0.0);
    EXPECT_GT(v[anchor].real(), 0.0);
  }
  // Decouple sample 0 with a small eigenvalue: the top vectors vanish there,
  // so the first largest-magnitude sample (ties within 1e-9 relative) takes
  // the phase instead; the same rule applies when no anchor is given.
  for (int c = 1; c < n; ++c) entry(h, n, 0, c) = entry(h, n, c, 0) = {0, 0};
  entry(h, n, 0, 0) = {-10.0, 0.0};
  for (const int a : {0, -1}) {
    const auto res = leadingEigenpairsHermitian(h, n, 5, a);
    for (const auto& v : res.eigenvectors) {
      EXPECT_LE(std::abs(v[0]), 1e-8);
      double best = 0.0;
      for (const Cplx& z : v) best = std::max(best, std::norm(z));
      std::size_t pivot = 0;
      while (std::norm(v[pivot]) < best * (1.0 - 1e-9)) ++pivot;
      EXPECT_EQ(v[pivot].imag(), 0.0);
      EXPECT_GT(v[pivot].real(), 0.0);
    }
  }
  // Ties go to the lowest index: [[1, i], [-i, 1]] has the top eigenvector
  // (1, -i) / sqrt(2), two samples of equal magnitude.
  const CplxMatrix tie = {{1, 0}, {0, 1}, {0, -1}, {1, 0}};
  const auto tied = leadingEigenpairsHermitian(tie, 2, 1);
  EXPECT_NEAR(tied.eigenvalues[0], 2.0, 1e-14);
  EXPECT_EQ(tied.eigenvectors[0][0].imag(), 0.0);
  EXPECT_NEAR(tied.eigenvectors[0][0].real(), std::sqrt(0.5), 1e-14);
  EXPECT_NEAR(tied.eigenvectors[0][1].real(), 0.0, 1e-14);
  EXPECT_NEAR(tied.eigenvectors[0][1].imag(), -std::sqrt(0.5), 1e-14);
}

TEST(Eigen, RejectsBadInput) {
  const CplxMatrix nonHermitian = {{1, 0}, {1, 1}, {1, 1}, {2, 0}};
  EXPECT_THROW(leadingEigenpairsHermitian(nonHermitian, 2, 1), InvalidArgument);
  const CplxMatrix complexDiagonal = {{1, 0.5}, {0, 0}, {0, 0}, {2, 0}};
  EXPECT_THROW(leadingEigenpairsHermitian(complexDiagonal, 2, 1),
               InvalidArgument);
  const CplxMatrix h = {{2, 0}, {0, 0}, {0, 0}, {1, 0}};
  EXPECT_THROW(leadingEigenpairsHermitian(h, 2, 0), InvalidArgument);
  EXPECT_THROW(leadingEigenpairsHermitian(h, 2, 3), InvalidArgument);
  EXPECT_THROW(leadingEigenpairsHermitian(h, 3, 1), InvalidArgument);
  EXPECT_THROW(leadingEigenpairsHermitian(h, 2, 1, 2), InvalidArgument);
}

TEST(Eigen, DefaultTccTopEigenvaluesMatchGoldenFixture) {
  // Top 25 eigenvalues of the default 1024 nm TCC (n = 161), recorded from
  // an independent cyclic Jacobi solve of its real 322 x 322 embedding.
  const std::vector<double> focus0 = {
      49.221919153959831,  13.434533090744548,  13.434533090744484,
      0.84620015554686889, 0.83200390273694913, 0.83200390273694258,
      0.76498332918495604, 0.4162012341036278,  0.34196002470562631,
      0.24809802668013581, 0.24809802668013015, 0.21211068072908038,
      0.21056210333490363, 0.16399853748617144, 0.16271887946129465,
      0.15905862861378339, 0.1554098799977473,  0.15540987999774444,
      0.13551856145840635, 0.13551856145840541, 0.10775058762810183,
      0.10675365917673645, 0.088435714942054724, 0.088435714942054641,
      0.080157717544997675};
  const std::vector<double> focus25 = {
      47.286621260607618,  13.366036099348181,  13.366036099347454,
      1.4958874310419261,  1.4102675379160337,  1.0842344377336792,
      1.0842344377336637,  0.49425034725884326, 0.41495929362260248,
      0.27372698632589493, 0.27372698632589404, 0.20634986866481717,
      0.20634986866481667, 0.20306433956903794, 0.18932999110479862,
      0.18609628520722007, 0.1372629253225762,  0.13600411623725134,
      0.12963081596023818, 0.12963081596023787, 0.10278072689792569,
      0.098782434831527474, 0.097628196131608613, 0.097628196131608072,
      0.074645974675351029};
  const OpticsConfig optics;
  const auto lattice = pupilLattice(optics);
  const int n = static_cast<int>(lattice.size());
  ASSERT_EQ(n, 161);
  for (const auto& [focus, golden] :
       {std::pair{0.0, focus0}, std::pair{25.0, focus25}}) {
    const auto tcc = buildTcc(optics, focus, lattice);
    const auto res = leadingEigenpairsHermitian(tcc, n, 25);
    for (std::size_t j = 0; j < golden.size(); ++j) {
      EXPECT_NEAR(res.eigenvalues[j], golden[j], 1e-10 * golden[j])
          << "focus " << focus << " eigenvalue " << j;
    }
    EXPECT_LT(maxEigenResidual(tcc, n, res), 1e-12);
  }
}

TEST(Eigen, ClusterSafeCountWidensToClusterEnd) {
  const std::vector<double> w = {5.0, 3.0, 3.0, 2.0, 1.0 + 2e-12, 1.0 + 1e-12,
                                 1.0};
  EXPECT_EQ(clusterSafeCount(w, 0), 0);
  EXPECT_EQ(clusterSafeCount(w, 1), 1);
  EXPECT_EQ(clusterSafeCount(w, 2), 3);
  EXPECT_EQ(clusterSafeCount(w, 3), 3);
  EXPECT_EQ(clusterSafeCount(w, 4), 4);
  EXPECT_EQ(clusterSafeCount(w, 5), 7);
  EXPECT_EQ(clusterSafeCount(w, 9), 7);
  const std::vector<double> split = {5.0, 1.0 + 1e-6, 1.0};  // gap > 5e-8
  EXPECT_EQ(clusterSafeCount(split, 2), 2);
}

}  // namespace
}  // namespace mosaic
