/// Unit and physics-sanity tests for the lithography simulator: optics
/// validation, pupil, TCC construction, SOCS kernels and forward imaging.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <thread>

#include "geometry/raster.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/pupil.hpp"
#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "math/eigen.hpp"
#include "math/fft.hpp"
#include "math/stats.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace {

OpticsConfig testOptics(int pixelNm = 8) {
  OpticsConfig optics;
  optics.pixelNm = pixelNm;
  return optics;
}

/// Shared simulator so the TCC eigendecomposition is paid once per suite.
LithoSimulator& sharedSim() {
  static LithoSimulator sim(testOptics(8));
  return sim;
}

Layout lineLayout(int widthNm) {
  Layout l;
  l.name = "line";
  l.sizeNm = 1024;
  const int y0 = 512 - widthNm / 2;
  l.addRect(256, y0, 768, y0 + widthNm);
  return l;
}

// --------------------------------------------------------------- optics

TEST(Optics, ValidatesDimensions) {
  OpticsConfig o = testOptics();
  EXPECT_NO_THROW(o.validate());
  EXPECT_EQ(o.gridSize(), 128);

  o.pixelNm = 3;  // does not divide 1024
  EXPECT_THROW(o.validate(), InvalidArgument);

  o = testOptics();
  o.clipSizeNm = 960;  // 960/8 = 120, not a power of two
  EXPECT_THROW(o.validate(), InvalidArgument);

  o = testOptics();
  o.sigmaInner = 0.9;
  o.sigmaOuter = 0.6;
  EXPECT_THROW(o.validate(), InvalidArgument);

  o = testOptics();
  o.na = 1.5;  // >= immersion index
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(Optics, DerivedQuantities) {
  const OpticsConfig o = testOptics();
  EXPECT_NEAR(o.cutoffFreq(), 1.35 / 193.0, 1e-12);
  EXPECT_NEAR(o.freqStep(), 1.0 / 1024.0, 1e-15);
}

TEST(Optics, ResistModelSigmoid) {
  const ResistModel resist;
  EXPECT_NEAR(resist.sigmoid(resist.threshold), 0.5, 1e-12);
  EXPECT_GT(resist.sigmoid(1.0), 0.99);
  EXPECT_LT(resist.sigmoid(0.0), 0.01);
  EXPECT_TRUE(resist.prints(0.3));
  EXPECT_FALSE(resist.prints(0.2));
}

class ResistDerivative : public ::testing::TestWithParam<double> {};

TEST_P(ResistDerivative, MatchesFiniteDifference) {
  const ResistModel resist;
  const double intensity = GetParam();
  const double h = 1e-6;
  const double fd =
      (resist.sigmoid(intensity + h) - resist.sigmoid(intensity - h)) /
      (2 * h);
  EXPECT_NEAR(resist.sigmoidDerivative(intensity), fd,
              1e-5 * std::max(1.0, std::fabs(fd)));
}

INSTANTIATE_TEST_SUITE_P(Intensities, ResistDerivative,
                         ::testing::Values(0.0, 0.1, 0.225, 0.3, 0.5, 1.0));

TEST(Optics, CornerSets) {
  const auto eval = evaluationCorners(25.0, 0.02);
  ASSERT_EQ(eval.size(), 6u);
  EXPECT_EQ(eval.front(), nominalCorner());
  // Optimization corners: inner extreme, nominal, outer extreme.
  const auto opt = optimizationCorners(25.0, 0.02);
  ASSERT_EQ(opt.size(), 3u);
  EXPECT_DOUBLE_EQ(opt[0].focusNm, 25.0);
  EXPECT_DOUBLE_EQ(opt[0].dose, 0.98);
  EXPECT_EQ(opt[1], nominalCorner());
  EXPECT_DOUBLE_EQ(opt[2].focusNm, 0.0);
  EXPECT_DOUBLE_EQ(opt[2].dose, 1.02);
}

// ---------------------------------------------------------------- pupil

TEST(Pupil, CircAtNominalFocus) {
  const OpticsConfig o = testOptics();
  const Pupil p(o, 0.0);
  EXPECT_EQ(p.value(0.0, 0.0), std::complex<double>(1.0, 0.0));
  const double inside = 0.9 * o.cutoffFreq();
  EXPECT_EQ(p.value(inside, 0.0), std::complex<double>(1.0, 0.0));
  const double outside = 1.01 * o.cutoffFreq();
  EXPECT_EQ(p.value(outside, 0.0), std::complex<double>(0.0, 0.0));
}

TEST(Pupil, DefocusIsPurePhase) {
  const OpticsConfig o = testOptics();
  const Pupil p(o, 25.0);
  // Unit magnitude inside the pupil, zero outside.
  const double f = 0.7 * o.cutoffFreq();
  EXPECT_NEAR(std::abs(p.value(f, 0.0)), 1.0, 1e-12);
  EXPECT_EQ(p.value(1.1 * o.cutoffFreq(), 0.0),
            std::complex<double>(0.0, 0.0));
  // Zero phase on axis (referenced to the chief ray).
  EXPECT_NEAR(std::arg(p.value(0.0, 0.0)), 0.0, 1e-12);
  // Nonzero phase at the pupil edge.
  EXPECT_GT(std::fabs(std::arg(p.value(f, f * 0.5))), 1e-3);
}

TEST(Pupil, DefocusPhaseIsRadiallySymmetric) {
  const OpticsConfig o = testOptics();
  const Pupil p(o, 25.0);
  const double f = 0.5 * o.cutoffFreq();
  const auto a = p.value(f, 0.0);
  const auto b = p.value(0.0, f);
  const auto c = p.value(f / std::sqrt(2.0), f / std::sqrt(2.0));
  EXPECT_NEAR(std::abs(a - b), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(a - c), 0.0, 1e-9);
}

TEST(Pupil, ZernikePhasesBehaveByOrder) {
  OpticsConfig o = testOptics();
  const double f = 0.6 * o.cutoffFreq();

  // Coma: unit magnitude, antisymmetric phase (P(f) != P(-f)), no DC phase.
  o.aberrations = {};
  o.aberrations.comaX = 0.05;
  {
    const Pupil p(o, 0.0);
    EXPECT_NEAR(std::abs(p.value(f, 0.0)), 1.0, 1e-12);
    EXPECT_NEAR(std::arg(p.value(0.0, 0.0)), 0.0, 1e-12);
    EXPECT_GT(std::fabs(std::arg(p.value(f, 0.0)) -
                        std::arg(p.value(-f, 0.0))),
              1e-4);
    // comaX has no phase along the y axis (cos theta = 0).
    EXPECT_NEAR(std::arg(p.value(0.0, f)), 0.0, 1e-12);
  }

  // Astigmatism 0: opposite phase on the x and y axes.
  o.aberrations = {};
  o.aberrations.astigmatism0 = 0.05;
  {
    const Pupil p(o, 0.0);
    const double px = std::arg(p.value(f, 0.0));
    const double py = std::arg(p.value(0.0, f));
    EXPECT_NEAR(px, -py, 1e-10);
    EXPECT_GT(std::fabs(px), 1e-4);
  }

  // Spherical: radially symmetric, nonzero piston at the pupil center.
  o.aberrations = {};
  o.aberrations.spherical = 0.05;
  {
    const Pupil p(o, 0.0);
    EXPECT_NEAR(std::abs(std::arg(p.value(f, 0.0)) -
                         std::arg(p.value(0.0, f))),
                0.0, 1e-10);
    EXPECT_GT(std::fabs(std::arg(p.value(0.0, 0.0))), 1e-4);
  }
}

TEST(Pupil, ComaShiftsAPrintedLine) {
  // comaY displaces the image along y; the centroid of a printed line
  // must move relative to the ideal lens.
  OpticsConfig ideal;
  ideal.pixelNm = 16;
  OpticsConfig comatic = ideal;
  comatic.aberrations.comaY = 0.08;
  LithoSimulator simIdeal(ideal);
  LithoSimulator simComa(comatic);

  Layout l;
  l.name = "line";
  l.sizeNm = 1024;
  l.addRect(256, 480, 768, 544);
  const BitGrid target = rasterize(l, 16);
  // Intensity-weighted centroid of the aerial image: continuous, so it
  // resolves sub-pixel displacements.
  auto centroidRow = [](const RealGrid& aerial) {
    double num = 0.0;
    double den = 0.0;
    for (int r = 0; r < aerial.rows(); ++r) {
      for (int c = 0; c < aerial.cols(); ++c) {
        num += r * aerial(r, c);
        den += aerial(r, c);
      }
    }
    return num / den;
  };
  const double ideal_c =
      centroidRow(simIdeal.aerial(toReal(target), nominalCorner()));
  const double coma_c =
      centroidRow(simComa.aerial(toReal(target), nominalCorner()));
  EXPECT_GT(std::fabs(coma_c - ideal_c), 0.02);  // > 0.02 px = 0.3 nm
}

// ------------------------------------------------------------------ tcc

TEST(Tcc, LatticeCoversPupil) {
  const OpticsConfig o = testOptics();
  const auto lattice = pupilLattice(o);
  // cutoff/freqStep ~ 7.16 -> |indices| <= 7 disk: 149..163 points.
  EXPECT_GT(lattice.size(), 140u);
  EXPECT_LT(lattice.size(), 180u);
  bool hasDc = false;
  for (const auto& s : lattice) {
    EXPECT_LE(s.fx * s.fx + s.fy * s.fy,
              o.cutoffFreq() * o.cutoffFreq() + 1e-15);
    if (s.row == 0 && s.col == 0) hasDc = true;
  }
  EXPECT_TRUE(hasDc);
}

TEST(Tcc, MatrixIsHermitianPsdDiagonal) {
  OpticsConfig o = testOptics();
  o.sourceOversample = 2;  // keep the test fast
  const auto lattice = pupilLattice(o);
  const auto tcc = buildTcc(o, 25.0, lattice);
  const int n = static_cast<int>(lattice.size());
  for (int p = 0; p < n; p += 7) {
    EXPECT_GE(tcc[static_cast<std::size_t>(p) * n + p].real(), 0.0);
    EXPECT_NEAR(tcc[static_cast<std::size_t>(p) * n + p].imag(), 0.0, 1e-12);
    for (int q = 0; q < n; q += 5) {
      const auto upper = tcc[static_cast<std::size_t>(p) * n + q];
      const auto lower = tcc[static_cast<std::size_t>(q) * n + p];
      EXPECT_NEAR(std::abs(upper - std::conj(lower)), 0.0, 1e-12);
    }
  }
}

TEST(Tcc, KernelWeightsDescendAndPositive) {
  const KernelSet& set = sharedSim().kernels(0.0);
  ASSERT_GT(set.kernelCount(), 0);
  EXPECT_LE(set.kernelCount(), 24);
  for (std::size_t k = 1; k < set.weights.size(); ++k) {
    EXPECT_LE(set.weights[k], set.weights[k - 1] + 1e-12);
    EXPECT_GT(set.weights[k], 0.0);
  }
}

TEST(Tcc, OpenFrameIntensityIsUnity) {
  // The key normalization invariant: an all-clear mask images to 1.0.
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  RealGrid open(n, n, 1.0);
  const RealGrid intensity = sim.aerial(open, nominalCorner());
  for (int r = 0; r < n; r += 17) {
    for (int c = 0; c < n; c += 13) {
      EXPECT_NEAR(intensity(r, c), 1.0, 1e-9);
    }
  }
}

TEST(Tcc, CombinedKernelDcIsUnitMagnitude) {
  const KernelSet& set = sharedSim().kernels(0.0);
  EXPECT_NEAR(std::abs(set.combined.dcValue()), 1.0, 1e-9);
  EXPECT_EQ(set.combined.gridSize, set.gridSize);
}

/// Complex forward FFT of a real mask (the plain path, no real-input
/// shortcuts).
ComplexGrid complexSpectrumOf(const RealGrid& mask) {
  ComplexGrid spectrum(mask.rows(), mask.cols());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    spectrum.data()[i] = mask.data()[i];
  }
  fft2dFor(mask.rows(), mask.cols()).forward(spectrum);
  return spectrum;
}

/// Plain SOCS sum over the first `count` kernels of `set`: per-kernel
/// multiply + complex inverse transform.
RealGrid socsSum(const KernelSet& set, const ComplexGrid& spectrum,
                 int count) {
  const int n = set.gridSize;
  const Fft2d& fft = fft2dFor(n, n);
  RealGrid out(n, n, 0.0);
  ComplexGrid field(n, n);
  for (int k = 0; k < count; ++k) {
    set.kernels[static_cast<std::size_t>(k)].multiplyInto(spectrum, field);
    fft.inverse(field);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] += set.weights[static_cast<std::size_t>(k)] *
                       std::norm(field.data()[i]);
    }
  }
  return out;
}

double maxAbsDiff(const RealGrid& a, const RealGrid& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// Replace kernels k and k + 1 of `set` by a random unitary rotation of
/// the pair: another basis of the same span.
void rotatePair(KernelSet& set, int k, Rng& rng) {
  const double theta = rng.uniform(0.1, 1.4);
  const std::complex<double> a =
      std::polar(std::cos(theta), rng.uniform(-3.1, 3.1));
  const std::complex<double> b =
      std::polar(std::sin(theta), rng.uniform(-3.1, 3.1));
  auto& first = set.kernels[static_cast<std::size_t>(k)].value;
  auto& second = set.kernels[static_cast<std::size_t>(k) + 1].value;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::complex<double> x = first[i];
    const std::complex<double> y = second[i];
    first[i] = a * x + b * y;
    second[i] = -std::conj(b) * x + std::conj(a) * y;
  }
}

double maxAbsDiff(const SparseSpectrum& a, const SparseSpectrum& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.value.size(); ++i) {
    worst = std::max(worst, std::abs(a.value[i] - b.value[i]));
  }
  return worst;
}

TEST(Tcc, TruncationNeverSplitsADegenerateCluster) {
  const OpticsConfig optics = testOptics(16);
  LithoSimulator sim(optics);
  // Default optics: the kernel count and the in-loop count already end on
  // cluster gaps at both foci, so they are left alone.
  for (const double focus : {0.0, 25.0}) {
    const KernelSet& set = sim.kernels(focus);
    EXPECT_EQ(set.kernelCount(), 24) << "focus " << focus;
    EXPECT_EQ(set.truncatedCount(24), 24) << "focus " << focus;
    EXPECT_EQ(set.truncatedCount(9), 9) << "focus " << focus;
    EXPECT_EQ(set.truncatedCount(0), 24) << "focus " << focus;
  }
  // lambda_5 == lambda_6 at focus 25: six kernels widen to seven. Binding
  // the count logs the widening once; the imaging hot path stays silent.
  const KernelSet& defocus = sim.kernels(25.0);
  EXPECT_EQ(sim.kernels(0.0).truncatedCount(6), 6);
  EXPECT_EQ(defocus.truncatedCount(6), 7);
  RealGrid mask = toReal(rasterize(lineLayout(96), 16));
  for (int r = 10; r < 22; ++r) {
    for (int c = 40; c < 50; ++c) mask(r, c) = 1.0;
  }
  const ProcessCorner corner{25.0, 1.0};
  const LogLevel level = logLevel();
  setLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(sim.inLoopKernelCount(25.0, 6), 7);
  EXPECT_EQ(sim.inLoopKernelCount(0.0, 6), 6);
  const RealGrid widened = sim.aerial(mask, corner, 6);
  (void)sim.aerial(mask, corner, 6);
  const std::string log = ::testing::internal::GetCapturedStderr();
  setLogLevel(level);
  const auto first = log.find("splits a degenerate");
  ASSERT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find("splits a degenerate", first + 1), std::string::npos)
      << log;
  EXPECT_NE(log.find("at focus 25 nm; using 7"), std::string::npos) << log;

  // Replace the {5, 6} eigenspace basis by a random unitary rotation of
  // itself (any basis is as valid as the solver's) and load it through the
  // disk cache: the widened in-loop aerial image must not move.
  ASSERT_NEAR(defocus.weights[5], defocus.weights[6],
              1e-8 * defocus.weights[0]);
  KernelSet rotated = defocus;
  Rng rng(2024);
  rotatePair(rotated, 5, rng);
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_cluster_rotation";
  std::filesystem::create_directories(dir);
  saveKernelSet((dir / kernelCacheName(optics, 25.0)).string(), rotated);
  LithoSimulator rotatedSim(optics);
  rotatedSim.setKernelCacheDir(dir.string());

  EXPECT_LT(maxAbsDiff(widened, rotatedSim.aerial(mask, corner, 6)), 1e-12);
  // The check has teeth: a sum cut between the pair does see the rotation.
  const ComplexGrid spectrum = complexSpectrumOf(mask);
  EXPECT_GT(maxAbsDiff(socsSum(defocus, spectrum, 6),
                       socsSum(rotatedSim.kernels(25.0), spectrum, 6)),
            1e-6);
  std::filesystem::remove_all(dir);
}

TEST(Tcc, CombinedKernelIgnoresTheBasisOfAnEigenspace) {
  // Eq. 21 sums each kernel with its own coefficient, so the combined
  // kernel would follow the solver's basis inside a degenerate eigenspace.
  // The solver's canonical basis removes that: rotate a pair's basis, put
  // it back into canonical form, and the kernels and the combined kernel
  // come back unchanged. Covers the dominant x/y pair at both foci.
  const OpticsConfig optics = testOptics(16);
  LithoSimulator sim(optics);
  const int dc = dcLatticeIndex(pupilLattice(optics));
  ASSERT_GE(dc, 0);
  Rng rng(77);
  for (const auto& [focus, pair] :
       {std::pair{0.0, 1}, std::pair{0.0, 4}, std::pair{25.0, 1},
        std::pair{25.0, 5}}) {
    const KernelSet& set = sim.kernels(focus);
    const auto k = static_cast<std::size_t>(pair);
    ASSERT_NEAR(set.weights[k], set.weights[k + 1], 1e-8 * set.weights[0])
        << "focus " << focus << " pair " << pair;
    KernelSet rotated = set;
    rotatePair(rotated, pair, rng);
    // Teeth: the raw rotated basis does move the combined kernel.
    EXPECT_GT(maxAbsDiff(combinedKernel(rotated), set.combined), 1e-3);

    std::vector<std::vector<std::complex<double>>> basis = {
        rotated.kernels[k].value, rotated.kernels[k + 1].value};
    canonicalEigenbasis(basis, dc);
    rotated.kernels[k].value = basis[0];
    rotated.kernels[k + 1].value = basis[1];
    EXPECT_LT(maxAbsDiff(rotated.kernels[k], set.kernels[k]), 1e-12);
    EXPECT_LT(maxAbsDiff(rotated.kernels[k + 1], set.kernels[k + 1]), 1e-12);
    EXPECT_LT(maxAbsDiff(combinedKernel(rotated), set.combined), 1e-12)
        << "focus " << focus << " pair " << pair;
  }
}

TEST(Tcc, SparseSpectrumHelpers) {
  SparseSpectrum s;
  s.gridSize = 4;
  s.flatIndex = {0, 1, 7};  // (0,0), (0,1), (1,3)
  s.value = {{1, 0}, {0, 1}, {2, -1}};
  EXPECT_EQ(s.dcValue(), std::complex<double>(1, 0));

  const SparseSpectrum f = s.flipped();
  // (0,1) -> (0,3) = 3 ; (1,3) -> (3,1) = 13 ; DC stays.
  EXPECT_EQ(f.flatIndex[0], 0);
  EXPECT_EQ(f.flatIndex[1], 3);
  EXPECT_EQ(f.flatIndex[2], 13);

  const SparseSpectrum c = s.conjugated();
  EXPECT_EQ(c.value[1], std::complex<double>(0, -1));

  const ComplexGrid dense = s.dense();
  EXPECT_EQ(dense(1, 3), std::complex<double>(2, -1));
  EXPECT_EQ(dense(2, 2), std::complex<double>(0, 0));
}

// ------------------------------------------------------------ simulator

TEST(Simulator, EmptyMaskImagesToDark) {
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  const RealGrid dark = sim.aerial(RealGrid(n, n, 0.0), nominalCorner());
  EXPECT_NEAR(maxAbs(dark), 0.0, 1e-12);
  EXPECT_EQ(popcount(sim.printBinary(dark)), 0);
}

TEST(Simulator, DoseScalesIntensityLinearly) {
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);
  const RealGrid nominal = sim.aerial(mask, {0.0, 1.0});
  const RealGrid overdosed = sim.aerial(mask, {0.0, 1.25});
  for (std::size_t i = 0; i < nominal.size(); i += 53) {
    EXPECT_NEAR(overdosed.data()[i], 1.25 * nominal.data()[i], 1e-9);
  }
}

TEST(Simulator, DefocusBlursPeak) {
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);
  const RealGrid focused = sim.aerial(mask, {0.0, 1.0});
  const RealGrid defocused = sim.aerial(mask, {25.0, 1.0});
  // Peak intensity of a narrow line drops through focus.
  EXPECT_LT(maxAbs(defocused), maxAbs(focused));
}

TEST(Simulator, SymmetricMaskGivesSymmetricImage) {
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid image = sim.aerial(toReal(target), nominalCorner());
  // The rasterized line occupies rows 60..67, i.e. it is symmetric under
  // the reflection r -> (n - 1) - r about row 63.5.
  for (int r = 1; r < n / 2; r += 3) {
    for (int c = 0; c < n; c += 7) {
      EXPECT_NEAR(image(n / 2 + r, c), image(n / 2 - 1 - r, c), 1e-6);
    }
  }
}

TEST(Simulator, LargePadPrintsInteriorOnly) {
  LithoSimulator& sim = sharedSim();
  Layout l;
  l.name = "pad";
  l.sizeNm = 1024;
  l.addRect(256, 256, 768, 768);
  const BitGrid target = rasterize(l, 8);
  const BitGrid print = sim.print(toReal(target), nominalCorner());
  // Interior prints.
  EXPECT_EQ(print(64, 64), 1u);
  // Far outside stays dark.
  EXPECT_EQ(print(8, 8), 0u);
  EXPECT_EQ(print(120, 8), 0u);
}

TEST(Simulator, KernelTruncationApproachesFullSum) {
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);
  const RealGrid full = sim.aerial(mask, nominalCorner(), 0);
  const RealGrid k6 = sim.aerial(mask, nominalCorner(), 6);
  const RealGrid k12 = sim.aerial(mask, nominalCorner(), 12);
  double err6 = 0.0;
  double err12 = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    err6 += std::fabs(full.data()[i] - k6.data()[i]);
    err12 += std::fabs(full.data()[i] - k12.data()[i]);
  }
  EXPECT_LT(err12, err6);
  EXPECT_LT(err12 / static_cast<double>(full.size()), 1e-3);
}

TEST(Simulator, KernelCacheReturnsSameObject) {
  LithoSimulator& sim = sharedSim();
  const KernelSet& a = sim.kernels(0.0);
  const KernelSet& b = sim.kernels(0.0);
  EXPECT_EQ(&a, &b);
  const KernelSet& c = sim.kernels(25.0);
  EXPECT_NE(&a, &c);
  EXPECT_DOUBLE_EQ(c.focusNm, 25.0);
}

/// Tiny, fast optics for the threaded kernel-cache tests: the 512 nm clip
/// shrinks the pupil lattice (and with it the TCC eigendecomposition) so
/// far that the injected delays dominate the timing even on one core.
OpticsConfig cheapOptics() {
  OpticsConfig o = testOptics(16);
  o.clipSizeNm = 512;
  o.sourceOversample = 2;
  return o;
}

TEST(Simulator, DistinctFocusKernelsComputeConcurrently) {
  // Regression for the kernel cache holding its mutex across
  // computeKernelSet: with the per-focus call_once scheme, two corners
  // with different focus values must overlap their first-use computation.
  // The injected 1.2 s delay fires once per compute; if the computations
  // serialized, wall time would be >= 2.4 s even with zero compute cost.
  // Sleeps overlap even on one core, so this is robust on small machines.
  LithoSimulator sim(cheapOptics());
  failpoint::ScopedFailpoints sfp("litho.kernel_load:delay=1200");
  WallTimer timer;
  std::thread a([&] { (void)sim.kernels(0.0); });
  std::thread b([&] { (void)sim.kernels(25.0); });
  a.join();
  b.join();
  EXPECT_EQ(failpoint::hitCount("litho.kernel_load"), 2);
  EXPECT_LT(timer.seconds(), 2.0);
}

TEST(Simulator, SameFocusComputesExactlyOnceUnderContention) {
  LithoSimulator sim(cheapOptics());
  // The delay widens the race window so the second thread reliably arrives
  // while the first is still inside the call_once.
  failpoint::ScopedFailpoints sfp("litho.kernel_load:delay=100");
  const KernelSet* pa = nullptr;
  const KernelSet* pb = nullptr;
  std::thread a([&] { pa = &sim.kernels(12.5); });
  std::thread b([&] { pb = &sim.kernels(12.5); });
  a.join();
  b.join();
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa, pb);
  EXPECT_EQ(failpoint::hitCount("litho.kernel_load"), 1);
}

TEST(Simulator, ImagingMatchesComplexFftPath) {
  // The imaging pipeline (real-input mask spectrum + the backend's pruned
  // inverse per kernel) must reproduce a plain SOCS sum built on the
  // complex fft.forward / fft.inverse to 1e-10 on the continuous images
  // and bit-exactly on the binary print.
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);

  const ComplexGrid spectrum = sim.maskSpectrum(mask);
  const RealGrid aerial = sim.aerialFromSpectrum(spectrum, nominalCorner());

  const ComplexGrid complexSpectrum = complexSpectrumOf(mask);
  double specDiff = 0.0;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    specDiff = std::max(
        specDiff, std::abs(spectrum.data()[i] - complexSpectrum.data()[i]));
  }
  EXPECT_LT(specDiff, 1e-10);

  const KernelSet& set = sim.kernels(0.0);
  const RealGrid complexAerial =
      socsSum(set, complexSpectrum, set.kernelCount());
  EXPECT_LT(maxAbsDiff(aerial, complexAerial), 1e-10);

  const RealGrid zNew = sim.printContinuous(aerial);
  const RealGrid zComplex = sim.printContinuous(complexAerial);
  for (std::size_t i = 0; i < zNew.size(); ++i) {
    ASSERT_NEAR(zNew.data()[i], zComplex.data()[i], 1e-10);
  }
  const BitGrid printNew = sim.printBinary(aerial);
  const BitGrid printComplex = sim.printBinary(complexAerial);
  for (std::size_t i = 0; i < printNew.size(); ++i) {
    ASSERT_EQ(printNew.data()[i], printComplex.data()[i]);
  }
}

TEST(Simulator, MaskShapeValidation) {
  LithoSimulator& sim = sharedSim();
  EXPECT_THROW(sim.aerial(RealGrid(16, 16, 0.0), nominalCorner()),
               InvalidArgument);
}

TEST(Simulator, ResistDiffusionSoftensTheImage) {
  // With acid diffusion the aerial image of a line is blurred: the peak
  // drops and the tails rise; total intensity is conserved.
  OpticsConfig optics;
  optics.pixelNm = 8;
  ResistModel diffusing;
  diffusing.diffusionSigmaNm = 16.0;
  LithoSimulator crisp(optics);
  LithoSimulator soft(optics, diffusing);
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid a = crisp.aerial(toReal(target), nominalCorner());
  const RealGrid b = soft.aerial(toReal(target), nominalCorner());
  EXPECT_LT(maxAbs(b), maxAbs(a));
  EXPECT_NEAR(sum(b), sum(a), 1e-6 * sum(a));
}

TEST(Simulator, PrintContinuousMatchesSigmoid) {
  LithoSimulator& sim = sharedSim();
  RealGrid aerialImage(sim.gridSize(), sim.gridSize(), 0.3);
  const RealGrid z = sim.printContinuous(aerialImage);
  EXPECT_NEAR(z(0, 0), sim.resist().sigmoid(0.3), 1e-12);
}

}  // namespace
}  // namespace mosaic
