/// Backend equivalence suite: cpu_scalar is the readable reference;
/// cpu_simd (the library default) must agree to 1e-10 on aerial,
/// gradient, and binary print across non-square grids, non-power-of-two
/// kernel counts, and maxKernels-truncated sets.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <random>
#include <vector>

#include "eval/evaluator.hpp"
#include "eval/process_window.hpp"
#include "eval/pvband.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/edges.hpp"
#include "litho/simulator.hpp"
#include "math/backend.hpp"
#include "math/convolution.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "math/scratch.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "support/telemetry/metrics.hpp"

namespace mosaic {
namespace {

/// Deterministic pseudo-random complex grid.
ComplexGrid randomSpectrum(int rows, int cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  ComplexGrid grid(rows, cols);
  for (auto& v : grid) v = {dist(rng), dist(rng)};
  return grid;
}

RealGrid randomReal(int rows, int cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  RealGrid grid(rows, cols);
  for (auto& v : grid) v = dist(rng);
  return grid;
}

/// Synthetic band-limited kernel: support restricted to a disc of radius
/// `radius` around DC (in wrapped frequency coordinates), mimicking the
/// pupil-disc support of real SOCS kernels.
struct SyntheticKernel {
  std::vector<int> flatIndex;
  std::vector<std::complex<double>> values;

  SyntheticKernel(int rows, int cols, int radius, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int r = 0; r < rows; ++r) {
      const int fr = (r <= rows / 2) ? r : r - rows;
      for (int c = 0; c < cols; ++c) {
        const int fc = (c <= cols / 2) ? c : c - cols;
        if (fr * fr + fc * fc > radius * radius) continue;
        flatIndex.push_back(r * cols + c);
        values.push_back({dist(rng), dist(rng)});
      }
    }
  }

  [[nodiscard]] exec::SpectrumView view() const {
    return {flatIndex.data(), values.data(), flatIndex.size()};
  }
};

struct Fixture {
  int rows, cols;
  ComplexGrid spectrum;
  RealGrid gField;
  std::vector<SyntheticKernel> kernels;
  std::vector<exec::SpectrumView> views;
  std::vector<double> weights;

  Fixture(int r, int c, int kernelCount, unsigned seed = 7)
      : rows(r), cols(c),
        spectrum(randomSpectrum(r, c, seed)),
        gField(randomReal(r, c, seed + 1)) {
    for (int k = 0; k < kernelCount; ++k) {
      kernels.emplace_back(rows, cols, 3 + k % 4, seed + 10 + k);
      weights.push_back(1.0 / (1.0 + k));
    }
    for (const auto& kern : kernels) views.push_back(kern.view());
  }
};

double maxAbsDiff(const RealGrid& a, const RealGrid& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

double maxAbsDiff(const ComplexGrid& a, const ComplexGrid& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

void expectAerialEquivalence(const exec::Backend& test, int rows, int cols,
                             int kernelCount, double dose, double tol) {
  Fixture fx(rows, cols, kernelCount);
  const Fft2d& fft = fft2dFor(rows, cols);
  RealGrid ref(rows, cols, 0.0);
  RealGrid got(rows, cols, 0.0);
  exec::scalarBackend().accumulateCoherentIntensity(
      fft, fx.spectrum, fx.views.data(), fx.weights.data(), kernelCount,
      dose, ref);
  test.accumulateCoherentIntensity(fft, fx.spectrum, fx.views.data(),
                                   fx.weights.data(), kernelCount, dose,
                                   got);
  EXPECT_LT(maxAbsDiff(ref, got), tol)
      << test.name() << " aerial mismatch at " << rows << "x" << cols
      << " K=" << kernelCount << " dose=" << dose;
}

void expectGradientEquivalence(const exec::Backend& test, int rows, int cols,
                               int kernelCount, double tol) {
  Fixture fx(rows, cols, kernelCount);
  const Fft2d& fft = fft2dFor(rows, cols);
  ComplexGrid ref(rows, cols, {0.0, 0.0});
  ComplexGrid got(rows, cols, {0.0, 0.0});
  exec::scalarBackend().accumulateGradientChains(
      fft, fx.spectrum, fx.views.data(), fx.weights.data(), kernelCount,
      fx.gField, ref);
  test.accumulateGradientChains(fft, fx.spectrum, fx.views.data(),
                                fx.weights.data(), kernelCount, fx.gField,
                                got);
  EXPECT_LT(maxAbsDiff(ref, got), tol)
      << test.name() << " gradient mismatch at " << rows << "x" << cols
      << " K=" << kernelCount;
}

TEST(BackendRegistry, NamesResolveAndAutoIsSimd) {
  EXPECT_EQ(exec::findBackend("cpu_scalar"), &exec::scalarBackend());
  EXPECT_EQ(exec::findBackend("cpu_simd"), &exec::simdBackend());
  EXPECT_EQ(exec::findBackend("auto"), &exec::simdBackend());
  EXPECT_EQ(exec::findBackend("gpu_magic"), nullptr);
  EXPECT_STREQ(exec::scalarBackend().name(), "cpu_scalar");
  EXPECT_STREQ(exec::simdBackend().name(), "cpu_simd");
}

TEST(BackendRegistry, LibraryDefaultIsSimd) {
  // No setCurrentBackend call anywhere in this binary: the default is
  // what every library consumer runs.
  EXPECT_EQ(&exec::currentBackend(), &exec::simdBackend());
  EXPECT_STREQ(exec::currentBackend().name(), "cpu_simd");
}

TEST(BackendEquivalence, AerialSquare) {
  expectAerialEquivalence(exec::simdBackend(), 64, 64, 8, 1.0, 1e-10);
}

TEST(BackendEquivalence, AerialNonSquare) {
  expectAerialEquivalence(exec::simdBackend(), 32, 128, 6, 1.0, 1e-10);
  expectAerialEquivalence(exec::simdBackend(), 128, 32, 6, 1.0, 1e-10);
}

TEST(BackendEquivalence, AerialNonPow2KernelCount) {
  // 5 and 7 kernels exercise the partial final batch (batch width 4).
  expectAerialEquivalence(exec::simdBackend(), 64, 64, 5, 1.0, 1e-10);
  expectAerialEquivalence(exec::simdBackend(), 64, 64, 7, 1.0, 1e-10);
  expectAerialEquivalence(exec::simdBackend(), 64, 64, 1, 1.0, 1e-10);
}

TEST(BackendEquivalence, AerialWithDose) {
  // Off-nominal dose exercises the backend-specific dose fold order.
  expectAerialEquivalence(exec::simdBackend(), 64, 64, 8, 1.07, 1e-10);
  expectAerialEquivalence(exec::simdBackend(), 64, 64, 8, 0.93, 1e-10);
}

TEST(BackendEquivalence, AerialTinyGridFallsBackToScalar) {
  expectAerialEquivalence(exec::simdBackend(), 4, 4, 3, 1.1, 1e-14);
}

TEST(BackendEquivalence, GradientSquare) {
  expectGradientEquivalence(exec::simdBackend(), 64, 64, 8, 1e-10);
}

TEST(BackendEquivalence, GradientNonSquare) {
  expectGradientEquivalence(exec::simdBackend(), 32, 128, 6, 1e-10);
  expectGradientEquivalence(exec::simdBackend(), 128, 32, 6, 1e-10);
}

TEST(BackendEquivalence, GradientNonPow2KernelCount) {
  expectGradientEquivalence(exec::simdBackend(), 64, 64, 5, 1e-10);
  expectGradientEquivalence(exec::simdBackend(), 64, 64, 7, 1e-10);
}

// ---------------------------------------------------------------------------
// Litho-level equivalence: the same checks through the real simulator with
// real SOCS kernels (coarse 8 nm pixel keeps the grid at 128^2).

OpticsConfig smallOptics() {
  OpticsConfig o;
  o.pixelNm = 8;
  return o;
}

ResistModel blurResist(double sigmaNm) {
  ResistModel r;
  r.diffusionSigmaNm = sigmaNm;
  return r;
}

/// Rectangle-plus-bar mask: asymmetric so flipped-index bugs can't cancel.
RealGrid testMask(int n) {
  RealGrid mask(n, n, 0.0);
  for (int r = n / 4; r < 3 * n / 4; ++r) {
    for (int c = n / 3; c < 2 * n / 3; ++c) mask(r, c) = 1.0;
  }
  for (int r = n / 8; r < n / 4; ++r) {
    for (int c = n / 8; c < 7 * n / 8; ++c) mask(r, c) = 1.0;
  }
  return mask;
}

TEST(LithoBackendEquivalence, AerialAndBinaryPrintMatchScalar) {
  LithoSimulator sim(smallOptics());
  const int n = sim.gridSize();
  const RealGrid mask = testMask(n);
  const ProcessCorner corner{25.0, 1.02};
  sim.setBackend(&exec::scalarBackend());
  const RealGrid refAerial = sim.aerial(mask, corner);
  const BitGrid refPrint = sim.printBinary(refAerial);
  sim.setBackend(&exec::simdBackend());
  const RealGrid gotAerial = sim.aerial(mask, corner);
  const BitGrid gotPrint = sim.printBinary(gotAerial);
  EXPECT_LT(maxAbsDiff(refAerial, gotAerial), 1e-10);
  EXPECT_EQ(refPrint, gotPrint);
}

TEST(LithoBackendEquivalence, MaxKernelsTruncation) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const ComplexGrid spectrum = sim.maskSpectrum(mask);
  const ProcessCorner corner{0.0, 0.98};
  for (const int maxK : {1, 3, 24, 999}) {
    sim.setBackend(&exec::scalarBackend());
    const RealGrid ref = sim.aerialFromSpectrum(spectrum, corner, maxK);
    sim.setBackend(&exec::simdBackend());
    const RealGrid got = sim.aerialFromSpectrum(spectrum, corner, maxK);
    EXPECT_LT(maxAbsDiff(ref, got), 1e-10) << "maxKernels=" << maxK;
  }
  // A request beyond the set size clamps to the full sum (bit-identical
  // to maxKernels = 0 on the same backend).
  const RealGrid clamped = sim.aerialFromSpectrum(spectrum, corner, 999);
  const RealGrid full = sim.aerialFromSpectrum(spectrum, corner, 0);
  EXPECT_EQ(maxAbsDiff(clamped, full), 0.0);
}

// Satellite 3 regression: when an off-nominal dose combines with a resist
// blur, each must apply exactly once. Double-dose would make the aerial
// scale quadratically with dose; double-blur (or dose inside the blur)
// would break agreement with the manually assembled blur(dose * raw).
TEST(LithoBackendEquivalence, DoseAndBlurApplyExactlyOnce) {
  const double sigmaNm = 20.0;
  LithoSimulator plainSim(smallOptics());
  LithoSimulator blurSim(smallOptics(), blurResist(sigmaNm));
  const int n = plainSim.gridSize();
  const RealGrid mask = testMask(n);
  const ProcessCorner corner{25.0, 1.05};
  const exec::Backend* backends[] = {&exec::scalarBackend(),
                                     &exec::simdBackend()};
  for (const exec::Backend* backend : backends) {
    plainSim.setBackend(backend);
    blurSim.setBackend(backend);
    const ComplexGrid spectrum = plainSim.maskSpectrum(mask);

    // Dose linearity: I(dose) == dose * I(1) elementwise (blur is linear,
    // so this holds with the blur epilogue active too).
    const RealGrid unit =
        blurSim.aerialFromSpectrum(spectrum, {corner.focusNm, 1.0});
    const RealGrid dosed = blurSim.aerialFromSpectrum(spectrum, corner);
    RealGrid scaledUnit = unit;
    for (auto& v : scaledUnit) v *= corner.dose;
    EXPECT_LT(maxAbsDiff(dosed, scaledUnit), 1e-10)
        << backend->name() << ": dose applied more than once";

    // Blur applied exactly once, after the dose: the blurred-sim output
    // must match a single manual gaussianBlur of the unblurred aerial.
    const RealGrid raw = plainSim.aerialFromSpectrum(spectrum, corner);
    const RealGrid manual =
        gaussianBlur(raw, sigmaNm / plainSim.optics().pixelNm);
    EXPECT_LT(maxAbsDiff(dosed, manual), 1e-10)
        << backend->name() << ": blur/dose epilogue mismatch";
  }
}

// Satellite 1 regression: one full evaluation (nominal print + EPE + PV
// band over all corners) pays exactly one forward mask FFT.
TEST(LithoBackendEquivalence, OneMaskSpectrumPerEvaluation) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const BitGrid target = thresholdGrid(mask, 0.5);
  telemetry::Counter& spectra =
      telemetry::metrics().counter("litho.mask_spectrum");
  const std::uint64_t before = spectra.value();
  (void)evaluateMask(sim, mask, target, 0.0);
  EXPECT_EQ(spectra.value() - before, 1u);
}

// Work-count gate: every consumer pays one SOCS sum per distinct focus
// (Eq. 18 corners at one focus share the dose-1 image), never one per
// corner. The default in-loop and evaluation corner sets span 2 foci.
TEST(LithoBackendEquivalence, OneAerialSumPerDistinctFocus) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const BitGrid target = thresholdGrid(mask, 0.5);
  telemetry::Counter& sums = telemetry::metrics().counter("litho.aerial_sum");
  telemetry::Counter& spectra =
      telemetry::metrics().counter("litho.mask_spectrum");
  const auto expectWork = [&](const char* what, std::uint64_t wantSums,
                              const auto& run) {
    const std::uint64_t sums0 = sums.value();
    const std::uint64_t spectra0 = spectra.value();
    run();
    EXPECT_EQ(sums.value() - sums0, wantSums) << what;
    EXPECT_EQ(spectra.value() - spectra0, 1u) << what;
  };

  const int pixelNm = sim.optics().pixelNm;
  for (const OpcMethod method :
       {OpcMethod::kMosaicFast, OpcMethod::kMosaicExact}) {
    const IltObjective objective(sim, target,
                                 defaultIltConfig(method, pixelNm));
    expectWork(methodName(method).c_str(), 2,
               [&] { (void)objective.evaluate(mask, true); });
  }
  IltConfig noPvb = defaultIltConfig(OpcMethod::kMosaicFast, pixelNm);
  noPvb.beta = 0.0;
  const IltObjective nominalOnly(sim, target, noPvb);
  expectWork("beta = 0", 1, [&] { (void)nominalOnly.evaluate(mask, true); });

  expectWork("evaluateMask", 2,
             [&] { (void)evaluateMask(sim, mask, target, 0.0); });

  ProcessWindowConfig window;
  window.focusSteps = 3;
  window.doseSteps = 5;
  expectWork("3x5 process window", 3,
             [&] { (void)measureProcessWindow(sim, mask, target, window); });
}

// The shared dose-1 image, thresholded at dose * I, must give the same
// prints as a per-corner aerialFromSpectrum at that dose. cpu_scalar
// applies the dose in one sweep after the sum, cpu_simd folds it into the
// kernel weights, and the resist blur sits between dose and threshold, so
// both backends are pinned with and without blur: images agree to 1e-10,
// prints exactly.
TEST(LithoBackendEquivalence, SharedFocusImagesMatchPerCornerPrints) {
  LithoSimulator plainSim(smallOptics());
  LithoSimulator blurSim(smallOptics(), blurResist(20.0));
  const exec::Backend* backends[] = {&exec::scalarBackend(),
                                     &exec::simdBackend()};
  for (LithoSimulator* sim : {&plainSim, &blurSim}) {
    for (const exec::Backend* backend : backends) {
      sim->setBackend(backend);
      SCOPED_TRACE(std::string(backend->name()) +
                   (sim == &blurSim ? " with blur" : " without blur"));
      const int pixelNm = sim->optics().pixelNm;
      const RealGrid mask = testMask(sim->gridSize());
      const BitGrid target = thresholdGrid(mask, 0.5);
      const ComplexGrid spectrum = sim->maskSpectrum(mask);
      const auto referencePrint = [&](const ProcessCorner& corner) {
        return sim->printBinary(sim->aerialFromSpectrum(spectrum, corner));
      };

      // The images themselves, and the PV band built per corner.
      const std::vector<ProcessCorner> corners = evaluationCorners();
      const std::map<double, RealGrid> images =
          sim->aerialByFocus(spectrum, corners);
      EXPECT_EQ(images.size(), 2u);
      BitGrid outer;
      BitGrid inner;
      for (const ProcessCorner& corner : corners) {
        RealGrid dosed = images.at(corner.focusNm);
        for (auto& v : dosed) v *= corner.dose;
        EXPECT_LT(maxAbsDiff(dosed,
                             sim->aerialFromSpectrum(spectrum, corner)),
                  1e-10)
            << "focus " << corner.focusNm << " dose " << corner.dose;
        const BitGrid print = referencePrint(corner);
        EXPECT_EQ(sim->printBinary(images.at(corner.focusNm), corner.dose),
                  print);
        outer = outer.empty() ? print : bitOr(outer, print);
        inner = inner.empty() ? print : bitAnd(inner, print);
      }
      const PvBandResult pvb = computePvBand(*sim, mask, corners);
      EXPECT_EQ(pvb.outer, outer);
      EXPECT_EQ(pvb.inner, inner);
      EXPECT_EQ(pvb.band, bitSub(outer, inner));
      EXPECT_GT(pvb.bandPixels, 0);

      // evaluateMask: nominal print from its own sum, PV band as above.
      const BitGrid nominal = referencePrint(nominalCorner());
      const EpeResult epe =
          measureEpe(nominal, target, extractSamples(target, 40 / pixelNm),
                     pixelNm, 15.0);
      const ShapeResult shape = analyzeShape(nominal, target);
      const CaseEvaluation ev = evaluateMask(*sim, mask, target, 0.0);
      EXPECT_EQ(ev.epeViolations, epe.violations);
      EXPECT_EQ(ev.meanAbsEpeNm, epe.meanAbsEpeNm);
      EXPECT_EQ(ev.maxAbsEpeNm, epe.maxAbsEpeNm);
      EXPECT_EQ(ev.shapeViolations, shape.violations());
      EXPECT_EQ(ev.pvbandAreaNm2, pvb.bandAreaNm2);

      // Process window: every (focus, dose) point of a 3 x 5 sweep.
      ProcessWindowConfig window;
      window.focusSteps = 3;
      window.doseSteps = 5;
      const ProcessWindowResult pw =
          measureProcessWindow(*sim, mask, target, window);
      const auto samples =
          extractSamples(target, window.sampleSpacingNm / pixelNm);
      ASSERT_EQ(pw.matrix.size(), 15u);
      for (const FocusExposurePoint& point : pw.matrix) {
        const BitGrid print = referencePrint({point.focusNm, point.dose});
        EXPECT_EQ(point.epeViolations,
                  measureEpe(print, target, samples, pixelNm,
                             window.epeToleranceNm)
                      .violations)
            << "focus " << point.focusNm << " dose " << point.dose;
        EXPECT_EQ(point.shapeViolations,
                  analyzeShape(print, target).violations());
      }
    }
  }
}

TEST(LithoBackendEquivalence, PvBandSpectrumOverloadIdentical) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const std::vector<ProcessCorner> corners = evaluationCorners();
  const PvBandResult fromMask = computePvBand(sim, mask, corners);
  const PvBandResult fromSpectrum =
      computePvBand(sim, sim.maskSpectrum(mask), corners);
  EXPECT_EQ(fromMask.bandPixels, fromSpectrum.bandPixels);
  EXPECT_EQ(fromMask.band, fromSpectrum.band);
  EXPECT_EQ(fromMask.outer, fromSpectrum.outer);
  EXPECT_EQ(fromMask.inner, fromSpectrum.inner);
}

// Satellite 2: the resident-bytes accounting follows the pool through
// lease, release, and clearThreadPool, and the gauge mirrors it.
TEST(ScratchPool, ResidentBytesTracksPoolAndClear) {
  scratch::clearThreadPool();
  const long long base = scratch::residentBytes();
  {
    scratch::RealLease lease(32, 32);
    lease.grid().fill(1.0);
  }  // released back to this thread's free list
  const long long pooled = scratch::residentBytes();
  EXPECT_GE(pooled - base, static_cast<long long>(32 * 32 * sizeof(double)));
  EXPECT_DOUBLE_EQ(
      telemetry::metrics().gauge("scratch.resident_bytes").value(),
      static_cast<double>(pooled));
  scratch::clearThreadPool();
  EXPECT_EQ(scratch::residentBytes(), base);
  EXPECT_DOUBLE_EQ(
      telemetry::metrics().gauge("scratch.resident_bytes").value(),
      static_cast<double>(base));
}

}  // namespace
}  // namespace mosaic
