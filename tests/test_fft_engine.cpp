/// Property tests for the FFT engine: invariants (Parseval, round-trip,
/// Hermitian symmetry of real-input spectra), agreement of the complex and
/// real-input paths with an O(n^2) DFT, the spectral-vs-spatial blur
/// regression, scratch-pool reuse, and a thread hammer on the lock-free
/// plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "math/convolution.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "math/scratch.hpp"
#include "support/telemetry/metrics.hpp"

namespace mosaic {
namespace {

/// Deterministic xorshift so failures reproduce across platforms.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
  double uniform() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 1000000u) / 1000000.0;
  }
};

ComplexGrid randomComplexGrid(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  ComplexGrid g(rows, cols);
  for (auto& v : g) v = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  return g;
}

RealGrid randomRealGrid(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  RealGrid g(rows, cols);
  for (auto& v : g) v = rng.uniform();
  return g;
}

double maxDiff(const ComplexGrid& a, const ComplexGrid& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

// ----------------------------------------------------------- invariants

TEST(FftEngine, RoundTripIsIdentity) {
  for (const int n : {2, 4, 16, 64, 128}) {
    const ComplexGrid original = randomComplexGrid(n, n, 11u + n);
    ComplexGrid g = original;
    const Fft2d& fft = fft2dFor(n, n);
    fft.forward(g);
    fft.inverse(g);
    EXPECT_LT(maxDiff(g, original), 1e-12) << "size " << n;
  }
}

TEST(FftEngine, RoundTripNonSquare) {
  const ComplexGrid original = randomComplexGrid(32, 128, 7u);
  ComplexGrid g = original;
  const Fft2d& fft = fft2dFor(32, 128);
  fft.forward(g);
  fft.inverse(g);
  EXPECT_LT(maxDiff(g, original), 1e-12);
}

TEST(FftEngine, ParsevalHolds) {
  // sum |x|^2 = (1/N) sum |X|^2 for the unnormalized forward transform.
  const int n = 64;
  const ComplexGrid x = randomComplexGrid(n, n, 23u);
  ComplexGrid spectrum = x;
  fft2dFor(n, n).forward(spectrum);
  double spatial = 0.0;
  double spectral = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    spatial += std::norm(x.data()[i]);
    spectral += std::norm(spectrum.data()[i]);
  }
  spectral /= static_cast<double>(n) * n;
  EXPECT_NEAR(spectral, spatial, 1e-9 * spatial);
}

TEST(FftEngine, RealSpectrumIsHermitian) {
  // X(r, c) = conj(X((R-r)%R, (C-c)%C)) for real input -- this is the
  // symmetry the half-spectrum fast path reconstructs from, so it must
  // hold exactly over the full grid it returns.
  const int rows = 32;
  const int cols = 64;
  const RealGrid x = randomRealGrid(rows, cols, 31u);
  const ComplexGrid spectrum = fft2dFor(rows, cols).forwardReal(x);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::complex<double> mirrored =
          std::conj(spectrum((rows - r) % rows, (cols - c) % cols));
      EXPECT_LT(std::abs(spectrum(r, c) - mirrored), 1e-12)
          << "at (" << r << "," << c << ")";
    }
  }
}

// ------------------------------------------ agreement with a naive DFT

/// Direct 2-D DFT, X(k, l) = sum_{r,c} x(r, c) e^{-+2 pi i (kr/R + lc/C)},
/// normalized by 1/(R*C) on inverse. Twiddles come from per-axis tables
/// indexed modulo the length, so the reference itself carries no phase
/// drift. O((R*C)^2): keep grids at or below 64 per side.
ComplexGrid naiveDft(const ComplexGrid& x, bool invert) {
  const int rows = x.rows();
  const int cols = x.cols();
  constexpr double kTwoPi = 6.28318530717958647692;
  const double sign = invert ? 1.0 : -1.0;
  const auto table = [&](int n) {
    std::vector<std::complex<double>> w(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      w[static_cast<std::size_t>(j)] = std::polar(1.0, sign * kTwoPi * j / n);
    }
    return w;
  };
  const std::vector<std::complex<double>> wr = table(rows);
  const std::vector<std::complex<double>> wc = table(cols);
  const double scale = invert ? 1.0 / (static_cast<double>(rows) * cols) : 1.0;
  ComplexGrid out(rows, cols);
  for (int k = 0; k < rows; ++k) {
    for (int l = 0; l < cols; ++l) {
      std::complex<double> acc{0.0, 0.0};
      for (int r = 0; r < rows; ++r) {
        const std::complex<double> rowTwiddle =
            wr[static_cast<std::size_t>((k * r) % rows)];
        for (int c = 0; c < cols; ++c) {
          acc += x(r, c) * rowTwiddle *
                 wc[static_cast<std::size_t>((l * c) % cols)];
        }
      }
      out(k, l) = acc * scale;
    }
  }
  return out;
}

/// Square and non-square shapes up to 64 per side, including the
/// degenerate single-row / single-column plans.
constexpr std::pair<int, int> kDftShapes[] = {
    {1, 1}, {1, 16}, {16, 1}, {4, 4}, {8, 64}, {64, 8}, {16, 32}, {32, 16},
    {64, 64}};

TEST(FftEngine, ComplexPathMatchesNaiveDft) {
  for (const auto& [rows, cols] : kDftShapes) {
    const ComplexGrid x = randomComplexGrid(rows, cols, 41u + rows * cols);
    const Fft2d& fft = fft2dFor(rows, cols);
    ComplexGrid g = x;
    fft.forward(g);
    EXPECT_LT(maxDiff(g, naiveDft(x, false)), 1e-10) << rows << "x" << cols;

    g = x;
    fft.inverse(g);
    EXPECT_LT(maxDiff(g, naiveDft(x, true)), 1e-12) << rows << "x" << cols;
  }
}

TEST(FftEngine, ForwardRealMatchesNaiveDft) {
  for (const auto& [rows, cols] : kDftShapes) {
    const RealGrid x = randomRealGrid(rows, cols, 53u + rows + cols);
    const ComplexGrid fast = fft2dFor(rows, cols).forwardReal(x);
    EXPECT_LT(maxDiff(fast, naiveDft(toComplex(x), false)), 1e-10)
        << rows << "x" << cols;
  }
}

TEST(FftEngine, InverseRealMatchesNaiveDft) {
  for (const auto& [rows, cols] : kDftShapes) {
    // A Hermitian spectrum by construction: the naive DFT of a real grid.
    // inverseRealInto only reads its non-redundant half; the naive
    // inverse sees the full grid. Both must reproduce the real signal.
    const RealGrid x = randomRealGrid(rows, cols, 67u + rows + cols);
    const ComplexGrid spectrum = naiveDft(toComplex(x), false);
    const ComplexGrid naive = naiveDft(spectrum, true);
    ComplexGrid workspace = spectrum;
    RealGrid fast(rows, cols);
    fft2dFor(rows, cols).inverseRealInto(workspace, fast);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        EXPECT_NEAR(fast(r, c), naive(r, c).real(), 1e-10)
            << rows << "x" << cols << " at (" << r << "," << c << ")";
        EXPECT_NEAR(fast(r, c), x(r, c), 1e-10);
      }
    }
  }
}

TEST(FftEngine, InverseRealPartMatchesNaiveDftOfAnySpectrum) {
  for (const auto& [rows, cols] : kDftShapes) {
    // No symmetry at all: inverseRealPartInto must return the real part
    // of the full complex inverse (the gradient's 2 Re(ifft(accum))).
    const ComplexGrid spectrum =
        randomComplexGrid(rows, cols, 71u + rows + cols);
    const ComplexGrid naive = naiveDft(spectrum, true);
    ComplexGrid workspace = spectrum;
    RealGrid fast(rows, cols);
    fft2dFor(rows, cols).inverseRealPartInto(workspace, fast);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        EXPECT_NEAR(fast(r, c), naive(r, c).real(), 1e-12)
            << rows << "x" << cols << " at (" << r << "," << c << ")";
      }
    }
  }
}

// ------------------------------------------------------ blur regression

TEST(FftEngine, GaussianBlurMatchesDirectSpatialConvolution) {
  // Pin the spectral blur (and with it the signed frequency convention at
  // the Nyquist bin) against a direct O(N^4) cyclic convolution with the
  // kernel obtained by inverse-transforming the blur multiplier. A wrong
  // Nyquist mapping or a modulo-precedence slip in the direct reference
  // shows up as a mismatch far above this tolerance.
  const int n = 16;
  const double sigma = 1.7;
  const RealGrid signal = randomRealGrid(n, n, 71u);
  const RealGrid blurred = gaussianBlur(signal, sigma);

  constexpr double kPi = 3.14159265358979323846;
  const double k = 2.0 * kPi * kPi * sigma * sigma;
  ComplexGrid multiplier(n, n);
  for (int r = 0; r < n; ++r) {
    const double fr =
        (r < (n + 1) / 2 ? r : r - n) / static_cast<double>(n);
    for (int c = 0; c < n; ++c) {
      const double fc =
          (c < (n + 1) / 2 ? c : c - n) / static_cast<double>(n);
      multiplier(r, c) = std::exp(-k * (fr * fr + fc * fc));
    }
  }
  ComplexGrid kernel = multiplier;
  fft2dFor(n, n).inverse(kernel);

  const ComplexGrid direct = directCyclicConvolve(toComplex(signal), kernel);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_NEAR(blurred(r, c), direct(r, c).real(), 1e-10)
          << "at (" << r << "," << c << ")";
      EXPECT_NEAR(direct(r, c).imag(), 0.0, 1e-10);
    }
  }
}

TEST(FftEngine, GaussianBlurPreservesMassAndSmooths) {
  const int n = 64;
  RealGrid impulse(n, n, 0.0);
  impulse(n / 2, n / 2) = 1.0;
  const RealGrid blurred = gaussianBlur(impulse, 2.0);
  double total = 0.0;
  double peak = 0.0;
  for (const double v : blurred) {
    total += v;
    peak = std::max(peak, v);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LT(peak, 0.25);
  // Cyclic symmetry of the impulse response.
  EXPECT_NEAR(blurred(n / 2 + 3, n / 2), blurred(n / 2 - 3, n / 2), 1e-12);
  EXPECT_NEAR(blurred(n / 2, n / 2 + 3), blurred(n / 2, n / 2 - 3), 1e-12);
}

// -------------------------------------------------------- scratch pool

TEST(FftEngine, ScratchLeaseReusesBuffers) {
  auto& hits = telemetry::metrics().counter("scratch.hit");
  auto& misses = telemetry::metrics().counter("scratch.miss");
  const std::uint64_t missesBefore = misses.value();
  {
    scratch::ComplexLease a(40, 40);  // uncommon shape: first use misses
    (*a)(0, 0) = {1.0, 2.0};
  }
  const std::uint64_t hitsBefore = hits.value();
  {
    scratch::ComplexLease b(40, 40);  // same shape on same thread: hit
    EXPECT_EQ(b->rows(), 40);
    EXPECT_EQ(b->cols(), 40);
  }
  EXPECT_GE(hits.value(), hitsBefore + 1);
  EXPECT_GE(misses.value(), missesBefore + 1);
}

TEST(FftEngine, ScratchLeaseMoveTransfersOwnership) {
  scratch::RealLease a(8, 8);
  RealGrid* raw = &*a;
  scratch::RealLease b = std::move(a);
  EXPECT_EQ(&*b, raw);
  b->fill(3.0);
  EXPECT_DOUBLE_EQ((*b)(7, 7), 3.0);
}

// ---------------------------------------------------------- plan cache

TEST(FftEngine, PlanCacheHammer) {
  // Many threads resolving a mix of new and existing shapes concurrently:
  // every thread must observe the same plan instance per shape (the cache
  // is append-only and lookups are lock-free).
  const std::vector<std::pair<int, int>> shapes = {
      {8, 8}, {16, 16}, {16, 32}, {32, 16}, {64, 64}, {8, 128}};
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::vector<const Fft2d*>> seen(
      kThreads, std::vector<const Fft2d*>(shapes.size(), nullptr));
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          // Stagger first-touch order across threads.
          const std::size_t idx = (s + static_cast<std::size_t>(t)) %
                                  shapes.size();
          const Fft2d& plan =
              fft2dFor(shapes[idx].first, shapes[idx].second);
          if (plan.rows() != shapes[idx].first ||
              plan.cols() != shapes[idx].second) {
            mismatch.store(true);
          }
          if (seen[static_cast<std::size_t>(t)][idx] == nullptr) {
            seen[static_cast<std::size_t>(t)][idx] = &plan;
          } else if (seen[static_cast<std::size_t>(t)][idx] != &plan) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  // All threads resolved each shape to one shared instance.
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][s], seen[0][s]);
    }
  }
}

TEST(FftEngine, PlanCacheTransformsAgreeAcrossThreads) {
  // Concurrent transforms through one cached plan must not interfere:
  // each thread round-trips its own grid and checks the result.
  constexpr int kThreads = 6;
  const int n = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ComplexGrid original =
          randomComplexGrid(n, n, 101u + static_cast<std::uint64_t>(t));
      ComplexGrid g = original;
      const Fft2d& fft = fft2dFor(n, n);
      for (int round = 0; round < 20; ++round) {
        fft.forward(g);
        fft.inverse(g);
      }
      if (maxDiff(g, original) > 1e-9) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mosaic
