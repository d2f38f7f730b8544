/// Tests for the core ILT machinery: mask transform, SRAF rules, objective
/// values, closed-form gradients (checked against finite differences --
/// this validates the paper's Eq. 13-17 implementation), optimizer
/// behaviour and the MOSAIC facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "eval/evaluator.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "math/convolution.hpp"
#include "math/fft.hpp"
#include "math/stats.hpp"
#include "opc/baselines.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "opc/optimizer.hpp"
#include "suite/testcases.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"

namespace mosaic {
namespace {

/// Coarse simulator (64 x 64 grid) for gradient checks: cheap objective
/// evaluations make central differences affordable.
LithoSimulator& coarseSim() {
  static LithoSimulator sim([] {
    OpticsConfig o;
    o.pixelNm = 16;
    return o;
  }());
  return sim;
}

/// Medium simulator (128 x 128) for end-to-end optimizer tests.
LithoSimulator& mediumSim() {
  static LithoSimulator sim([] {
    OpticsConfig o;
    o.pixelNm = 8;
    return o;
  }());
  return sim;
}

BitGrid coarseTarget() {
  Layout l;
  l.name = "grad_target";
  l.sizeNm = 1024;
  l.addRect(256, 448, 768, 576);   // fat bar
  l.addRect(384, 640, 448, 832);   // vertical stub
  return rasterize(l, 16);
}

/// A smooth, non-binary mask so sigmoid saturation does not kill the
/// gradients under test.
RealGrid smoothMask(const BitGrid& target, double lo = 0.2, double hi = 0.8) {
  RealGrid m = toReal(target);
  for (auto& v : m) v = lo + (hi - lo) * v;
  return m;
}

// --------------------------------------------------------- MaskTransform

TEST(MaskTransform, RoundTripWithinClamp) {
  MaskTransform t(4.0);
  RealGrid mask(4, 4);
  Rng rng(1);
  for (auto& v : mask) v = rng.uniform(0.1, 0.9);
  const RealGrid params = t.toParams(mask, 0.05);
  const RealGrid back = t.toMask(params);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    EXPECT_NEAR(back.data()[i], mask.data()[i], 1e-10);
  }
}

TEST(MaskTransform, BinaryInputClampsSymmetrically) {
  MaskTransform t(4.0);
  RealGrid mask(1, 2);
  mask(0, 0) = 0.0;
  mask(0, 1) = 1.0;
  const RealGrid params = t.toParams(mask, 0.05);
  EXPECT_NEAR(params(0, 0), -params(0, 1), 1e-12);
  EXPECT_LT(params(0, 0), 0.0);
}

TEST(MaskTransform, ChainRuleMatchesFiniteDifference) {
  MaskTransform t(4.0);
  RealGrid params(1, 1);
  params(0, 0) = 0.37;
  const RealGrid mask = t.toMask(params);
  // d/dP of M: FD.
  RealGrid p2 = params;
  const double h = 1e-6;
  p2(0, 0) += h;
  const double fd = (t.toMask(p2)(0, 0) - mask(0, 0)) / h;
  RealGrid grad(1, 1, 1.0);  // dF/dM = 1
  t.chainRule(mask, grad);
  EXPECT_NEAR(grad(0, 0), fd, 1e-5);
}

TEST(MaskTransform, BinarizeAtHalf) {
  RealGrid m(1, 3);
  m(0, 0) = 0.49;
  m(0, 1) = 0.51;
  m(0, 2) = 0.5;
  const BitGrid b = MaskTransform::binarize(m);
  EXPECT_EQ(b(0, 0), 0u);
  EXPECT_EQ(b(0, 1), 1u);
  EXPECT_EQ(b(0, 2), 0u);
}

TEST(MaskTransform, InvalidParamsThrow) {
  EXPECT_THROW(MaskTransform(0.0), InvalidArgument);
  EXPECT_THROW(MaskTransform(4.0, 1.0, 0.5), InvalidArgument);   // lo >= hi
  EXPECT_THROW(MaskTransform(4.0, -2.0, 0.0), InvalidArgument);  // hi <= 0
  MaskTransform t(4.0);
  EXPECT_THROW(t.toParams(RealGrid(1, 1), 0.7), InvalidArgument);
}

TEST(MaskTransform, PsmRangeRoundTrip) {
  const double low = -0.2449489743;  // 6 % attenuated PSM
  MaskTransform t(4.0, low, 1.0);
  RealGrid mask(2, 2);
  mask(0, 0) = -0.2;
  mask(0, 1) = 0.0;
  mask(1, 0) = 0.5;
  mask(1, 1) = 0.95;
  const RealGrid back = t.toMask(t.toParams(mask, 0.01));
  for (std::size_t i = 0; i < mask.size(); ++i) {
    EXPECT_NEAR(back.data()[i], mask.data()[i], 1e-9);
  }
  // Range limits are respected even for extreme P.
  RealGrid extreme(1, 2);
  extreme(0, 0) = -100.0;
  extreme(0, 1) = 100.0;
  const RealGrid m = t.toMask(extreme);
  EXPECT_NEAR(m(0, 0), low, 1e-9);
  EXPECT_NEAR(m(0, 1), 1.0, 1e-9);
}

TEST(MaskTransform, PsmChainRuleMatchesFiniteDifference) {
  MaskTransform t(4.0, -1.0, 1.0);
  RealGrid params(1, 1);
  params(0, 0) = -0.23;
  const RealGrid mask = t.toMask(params);
  RealGrid p2 = params;
  const double h = 1e-6;
  p2(0, 0) += h;
  const double fd = (t.toMask(p2)(0, 0) - mask(0, 0)) / h;
  RealGrid grad(1, 1, 1.0);
  t.chainRule(mask, grad);
  EXPECT_NEAR(grad(0, 0), fd, 1e-5);
}

TEST(MaskTransform, QuantizeAndMaterialize) {
  const double low = -0.5;
  MaskTransform t(4.0, low, 1.0);
  RealGrid mask(1, 3);
  mask(0, 0) = -0.4;  // below mid (0.25)
  mask(0, 1) = 0.3;   // above mid
  mask(0, 2) = 0.9;
  const BitGrid features = t.quantizeFeatures(mask);
  EXPECT_EQ(features(0, 0), 0u);
  EXPECT_EQ(features(0, 1), 1u);
  EXPECT_EQ(features(0, 2), 1u);
  const RealGrid material = t.materialize(features);
  EXPECT_DOUBLE_EQ(material(0, 0), low);
  EXPECT_DOUBLE_EQ(material(0, 1), 1.0);
}

// ------------------------------------------------------------------ sraf

TEST(Sraf, BandRespectsDistances) {
  BitGrid target(64, 64, 0);
  for (int r = 28; r < 36; ++r) {
    for (int c = 20; c < 44; ++c) target(r, c) = 1;
  }
  SrafConfig cfg;
  cfg.minDistanceNm = 40;  // 5 px at 8 nm
  cfg.maxDistanceNm = 64;  // 8 px
  cfg.clipMarginNm = 0;
  const BitGrid band = srafBand(target, 8, cfg);
  EXPECT_GT(countSet(band), 0);
  // No band pixel within the keep-away ring or inside the feature.
  const BitGrid tooClose = dilateSquare(target, 5);
  EXPECT_EQ(countSet(bitAnd(band, tooClose)), 0);
  // All band pixels within the outer ring.
  const BitGrid outer = dilateSquare(target, 8);
  EXPECT_EQ(countSet(bitSub(band, outer)), 0);
}

TEST(Sraf, DisabledReturnsTarget) {
  BitGrid target(16, 16, 0);
  target(8, 8) = 1;
  SrafConfig cfg;
  cfg.enabled = false;
  EXPECT_EQ(insertSraf(target, 8, cfg), target);
}

TEST(Sraf, InsertIsSupersetOfTarget) {
  BitGrid target(64, 64, 0);
  target(32, 32) = 1;
  const BitGrid withSraf = insertSraf(target, 8);
  EXPECT_EQ(countSet(bitSub(target, withSraf)), 0);
  EXPECT_GT(countSet(withSraf), countSet(target));
}

TEST(Sraf, ClipMarginKeepOut) {
  BitGrid target(32, 32, 0);
  target(16, 2) = 1;  // feature near the border
  SrafConfig cfg;
  cfg.minDistanceNm = 16;
  cfg.maxDistanceNm = 40;
  cfg.clipMarginNm = 32;  // 4 px at 8 nm
  const BitGrid band = srafBand(target, 8, cfg);
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(band(r, c), 0u);
  }
}

TEST(Sraf, NoBandBetweenCloseFeatures) {
  // Two features closer than twice the minimum distance: the dilations
  // overlap, so no assist feature may appear in the gap.
  BitGrid target(64, 64, 0);
  for (int r = 28; r < 36; ++r) {
    for (int c = 8; c < 24; ++c) target(r, c) = 1;   // left feature
    for (int c = 32; c < 48; ++c) target(r, c) = 1;  // right, 8 px gap
  }
  SrafConfig cfg;
  cfg.minDistanceNm = 40;  // 5 px at 8 nm; gap of 8 px < 2*5
  cfg.maxDistanceNm = 64;
  cfg.clipMarginNm = 0;
  const BitGrid band = srafBand(target, 8, cfg);
  for (int r = 28; r < 36; ++r) {
    for (int c = 24; c < 32; ++c) {
      EXPECT_EQ(band(r, c), 0u) << "SRAF in the forbidden gap at (" << r
                                << "," << c << ")";
    }
  }
}

TEST(Sraf, InvalidConfigThrows) {
  BitGrid target(8, 8, 0);
  SrafConfig cfg;
  cfg.minDistanceNm = 50;
  cfg.maxDistanceNm = 40;
  EXPECT_THROW(srafBand(target, 8, cfg), InvalidArgument);
  cfg.minDistanceNm = 4;  // below one pixel
  cfg.maxDistanceNm = 40;
  EXPECT_THROW(srafBand(target, 8, cfg), InvalidArgument);
}

// ------------------------------------------------------------- baselines

TEST(Baselines, NoOpcEqualsTarget) {
  BitGrid target(8, 8, 0);
  target(3, 3) = 1;
  const RealGrid mask = noOpcMask(target);
  EXPECT_DOUBLE_EQ(mask(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(mask(0, 0), 0.0);
}

TEST(Baselines, RuleOpcPositiveBiasDilates) {
  BitGrid target(32, 32, 0);
  for (int r = 12; r < 20; ++r) {
    for (int c = 12; c < 20; ++c) target(r, c) = 1;
  }
  SrafConfig noSraf;
  noSraf.enabled = false;
  const RealGrid biased = ruleOpcMask(target, 8, 8, noSraf);
  EXPECT_EQ(countSet(thresholdGrid(biased, 0.5)), 10 * 10);
}

TEST(Baselines, RuleOpcNegativeBiasErodes) {
  BitGrid target(32, 32, 0);
  for (int r = 12; r < 20; ++r) {
    for (int c = 12; c < 20; ++c) target(r, c) = 1;
  }
  SrafConfig noSraf;
  noSraf.enabled = false;
  const RealGrid biased = ruleOpcMask(target, 8, -8, noSraf);
  EXPECT_EQ(countSet(thresholdGrid(biased, 0.5)), 6 * 6);
}

// ----------------------------------------------------- objective values

TEST(Objective, PerfectTargetGivesSmallImageDiff) {
  // A mask that prints exactly the target would zero F_id; the physical
  // print cannot be exact, but the residual must be far below the value
  // at a blank mask.
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.beta = 0.0;
  IltObjective obj(sim, target, cfg);
  const auto atTarget = obj.evaluate(toReal(target), false);
  const auto atBlank =
      obj.evaluate(RealGrid(sim.gridSize(), sim.gridSize(), 0.0), false);
  EXPECT_LT(atTarget.targetValue, 0.3 * atBlank.targetValue);
  EXPECT_TRUE(atTarget.gradMask.empty());
}

TEST(Objective, ValueComposition) {
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.alpha = 2.0;
  cfg.beta = 3.0;
  IltObjective obj(sim, target, cfg);
  const auto eval = obj.evaluate(smoothMask(target), false);
  EXPECT_NEAR(eval.value, 2.0 * eval.targetValue + 3.0 * eval.pvbValue,
              1e-9 * std::fabs(eval.value));
  EXPECT_GT(eval.pvbValue, 0.0);
}

TEST(Objective, BetaZeroSkipsPvb) {
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.beta = 0.0;
  IltObjective obj(sim, target, cfg);
  const auto eval = obj.evaluate(smoothMask(target), true);
  EXPECT_DOUBLE_EQ(eval.pvbValue, 0.0);
  EXPECT_FALSE(eval.gradMask.empty());
}

TEST(Objective, InLoopWideningIsLoggedOnceWhenBound) {
  // Six kernels split the lambda_5 == lambda_6 pair at focus 25, the
  // defocus corner: the objective widens to seven when it is built, says
  // so once, and evaluates silently after that.
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.inLoopKernels = 6;
  const LogLevel level = logLevel();
  setLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  const IltObjective obj(sim, target, cfg);
  (void)obj.evaluate(smoothMask(target), true);
  (void)obj.evaluate(smoothMask(target), true);
  const std::string log = ::testing::internal::GetCapturedStderr();
  setLogLevel(level);
  const auto first = log.find("splits a degenerate");
  ASSERT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find("splits a degenerate", first + 1), std::string::npos)
      << log;
  EXPECT_NE(log.find("at focus 25 nm; using 7"), std::string::npos) << log;
}

/// Per-corner reference for IltObjective::evaluate with regWeight = 0: the
/// nominal corner and every PV corner get their own aerialFromSpectrum
/// call (four SOCS sums for the default corners, where the objective
/// shares one image per focus); the arithmetic otherwise follows the
/// objective step for step, so the two must agree bit for bit.
IltObjective::Evaluation perCornerReference(const IltObjective& obj,
                                            const RealGrid& mask) {
  const LithoSimulator& sim = obj.simulator();
  const IltConfig& cfg = obj.config();
  const ResistModel& resist = sim.resist();
  const RealGrid& zt = obj.targetReal();
  const int n = sim.gridSize();
  const ComplexGrid spectrum = sim.maskSpectrum(mask);

  const RealGrid z = sim.printContinuous(sim.aerialFromSpectrum(
      spectrum, nominalCorner(), cfg.inLoopKernels));
  // dF/dZ of the target term, times dZ/dI below.
  RealGrid dFdZ(n, n, 0.0);
  IltObjective::Evaluation ref;
  if (cfg.targetTerm == TargetTerm::kImageDiff) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      const double d = z.data()[i] - zt.data()[i];
      const double ad = std::fabs(d);
      ref.targetValue += std::pow(ad, cfg.gamma);
      dFdZ.data()[i] = cfg.gamma * std::pow(ad, cfg.gamma - 1.0) *
                       ((d >= 0.0) ? 1.0 : -1.0);
    }
  } else {
    const int pixelNm = sim.optics().pixelNm;
    const int w = std::max(
        1, static_cast<int>(std::lround(cfg.epeThresholdNm / pixelNm)));
    RealGrid d2(n, n);
    for (std::size_t i = 0; i < d2.size(); ++i) {
      const double d = z.data()[i] - zt.data()[i];
      d2.data()[i] = d * d;
    }
    const double tau = static_cast<double>(w);
    RealGrid weight(n, n, 0.0);
    for (const SamplePoint& s : obj.samples()) {
      const auto at = [&](RealGrid& g, int t) -> double& {
        return s.horizontal ? g(t, s.along) : g(s.along, t);
      };
      double dsum = 0.0;
      for (int t = s.boundary - w; t <= s.boundary + w - 1; ++t) {
        if (t >= 0 && t < n) dsum += at(d2, t);
      }
      const double sig =
          1.0 / (1.0 + std::exp(-cfg.thetaEpe * (dsum - tau)));
      ref.targetValue += sig;
      for (int t = s.boundary - w; t <= s.boundary + w - 1; ++t) {
        if (t >= 0 && t < n) at(weight, t) += cfg.thetaEpe * sig * (1.0 - sig);
      }
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      dFdZ.data()[i] =
          weight.data()[i] * 2.0 * (z.data()[i] - zt.data()[i]);
    }
  }

  std::map<double, RealGrid> gByFocus;
  const auto addField = [&](double focus, const RealGrid& g, double scale) {
    RealGrid& acc = gByFocus.try_emplace(focus, n, n, 0.0).first->second;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc.data()[i] += scale * g.data()[i];
    }
  };
  RealGrid gTarget(n, n);
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double zv = z.data()[i];
    gTarget.data()[i] = dFdZ.data()[i] * (resist.thetaZ * zv * (1.0 - zv));
  }
  if (cfg.alpha > 0.0) addField(0.0, gTarget, cfg.alpha);

  if (cfg.beta > 0.0) {
    for (const ProcessCorner& corner : cfg.pvbCorners) {
      const RealGrid aerial = sim.aerialFromSpectrum(
          spectrum, {corner.focusNm, 1.0}, cfg.inLoopKernels);
      RealGrid g(n, n);
      double value = 0.0;
      for (std::size_t i = 0; i < aerial.size(); ++i) {
        const double zv = resist.sigmoid(corner.dose * aerial.data()[i]);
        const double diff = zv - zt.data()[i];
        value += diff * diff;
        g.data()[i] =
            2.0 * diff * (resist.thetaZ * zv * (1.0 - zv)) * corner.dose;
      }
      ref.pvbValue += value;
      addField(corner.focusNm, g, cfg.beta);
    }
  }

  // One spectral accumulator over every focus, one real-part inverse.
  const double diffusionPx = resist.diffusionSigmaNm / sim.optics().pixelNm;
  ComplexGrid accum(n, n, {0.0, 0.0});
  for (const auto& [focus, g] : gByFocus) {
    const KernelSet& set = sim.kernels(focus);
    std::vector<exec::SpectrumView> views;
    std::vector<double> weights;
    if (cfg.gradientMode == GradientMode::kCombinedKernel) {
      views.push_back({set.combined.flatIndex.data(),
                       set.combined.value.data(),
                       set.combined.flatIndex.size()});
      weights.push_back(1.0);
    } else {
      for (int k = 0; k < set.truncatedCount(cfg.inLoopKernels); ++k) {
        const SparseSpectrum& h = set.kernels[static_cast<std::size_t>(k)];
        views.push_back({h.flatIndex.data(), h.value.data(),
                         h.flatIndex.size()});
        weights.push_back(set.weights[static_cast<std::size_t>(k)]);
      }
    }
    sim.activeBackend().accumulateGradientChains(
        spectrum, views.data(), weights.data(),
        static_cast<int>(views.size()), g, diffusionPx, accum);
  }
  ref.gradMask = RealGrid(n, n);
  fft2dFor(n, n).inverseRealPartInto(accum, ref.gradMask);
  for (auto& v : ref.gradMask) v *= 2.0;
  ref.value = cfg.alpha * ref.targetValue + cfg.beta * ref.pvbValue;
  ref.zNominal = z;
  return ref;
}

TEST(Objective, SharedFocusImagesMatchPerCornerReference) {
  // The objective images each distinct focus once and applies the corner
  // doses in its epilogue; value, gradient and nominal print must be
  // bytewise those of the per-corner evaluation, for both MOSAIC target
  // terms, both gradient modes and with and without resist diffusion.
  OpticsConfig optics;
  optics.pixelNm = 16;
  ResistModel diffused;
  diffused.diffusionSigmaNm = 24.0;
  const LithoSimulator plainSim(optics);
  const LithoSimulator blurSim(optics, diffused);
  const BitGrid target = coarseTarget();
  const RealGrid mask = smoothMask(target);
  for (const LithoSimulator* sim : {&plainSim, &blurSim}) {
    for (const OpcMethod method :
         {OpcMethod::kMosaicFast, OpcMethod::kMosaicExact}) {
      for (const GradientMode mode :
           {GradientMode::kCombinedKernel, GradientMode::kPerKernel}) {
        IltConfig cfg = defaultIltConfig(method, optics.pixelNm);
        cfg.gradientMode = mode;
        SCOPED_TRACE(methodName(method) +
                     (mode == GradientMode::kPerKernel ? " per-kernel"
                                                       : " combined") +
                     (sim == &blurSim ? " with diffusion" : ""));
        const IltObjective obj(*sim, target, cfg);
        const IltObjective::Evaluation got = obj.evaluate(mask, true);
        const IltObjective::Evaluation ref = perCornerReference(obj, mask);
        EXPECT_EQ(got.value, ref.value);
        EXPECT_EQ(got.targetValue, ref.targetValue);
        EXPECT_EQ(got.pvbValue, ref.pvbValue);
        EXPECT_TRUE(got.gradMask == ref.gradMask);
        EXPECT_TRUE(got.zNominal == ref.zNominal);
        EXPECT_GT(ref.pvbValue, 0.0);
      }
    }
  }
}

// Work-count gate (docs/observability.md): exact transform counts per
// evaluation on the band-limited default path. An in-loop evaluation at
// F = 2 foci runs 6 full-grid transforms (mask forward, 2 image
// inverses, 2 dF/dI forwards, 1 gradient inverse); every per-kernel
// transform runs on the coarse lattice.
TEST(Objective, TransformCountsPerEvaluation) {
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  const RealGrid mask = smoothMask(target);
  telemetry::Counter& full = telemetry::metrics().counter("litho.fft.full");
  telemetry::Counter& coarse =
      telemetry::metrics().counter("litho.fft.coarse");
  telemetry::Counter& sums = telemetry::metrics().counter("litho.aerial_sum");
  telemetry::Counter& spectra =
      telemetry::metrics().counter("litho.mask_spectrum");
  struct Work {
    std::uint64_t full, coarse, sums, spectra;
  };
  const auto measure = [&](const auto& run) {
    const Work before{full.value(), coarse.value(), sums.value(),
                      spectra.value()};
    run();
    return Work{full.value() - before.full, coarse.value() - before.coarse,
                sums.value() - before.sums, spectra.value() - before.spectra};
  };

  for (const GradientMode mode :
       {GradientMode::kCombinedKernel, GradientMode::kPerKernel}) {
    IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 16);
    cfg.gradientMode = mode;
    const IltObjective obj(sim, target, cfg);
    // Coarse transforms: K + 1 per image, 2 K' + 1 per gradient chain set
    // (K' = 1 for the combined kernel).
    std::uint64_t imageCoarse = 0;
    std::uint64_t chainCoarse = 0;
    for (const double focus : {0.0, 25.0}) {
      const int k = sim.kernels(focus).truncatedCount(cfg.inLoopKernels);
      const int chains = mode == GradientMode::kPerKernel ? k : 1;
      imageCoarse += static_cast<std::uint64_t>(k) + 1;
      chainCoarse += 2 * static_cast<std::uint64_t>(chains) + 1;
    }
    const Work withGradient = measure([&] { (void)obj.evaluate(mask, true); });
    EXPECT_EQ(withGradient.full, 6u);
    EXPECT_EQ(withGradient.coarse, imageCoarse + chainCoarse);
    EXPECT_EQ(withGradient.sums, 2u);
    EXPECT_EQ(withGradient.spectra, 1u);
    const Work valueOnly = measure([&] { (void)obj.evaluate(mask, false); });
    EXPECT_EQ(valueOnly.full, 3u);
    EXPECT_EQ(valueOnly.coarse, imageCoarse);
  }

  // evaluateMask: one mask forward and one full-kernel image per focus.
  const Work eval =
      measure([&] { (void)evaluateMask(sim, mask, target, 0.0); });
  EXPECT_EQ(eval.full, 3u);
  EXPECT_EQ(eval.coarse, static_cast<std::uint64_t>(
                             sim.kernels(0.0).kernelCount() + 1 +
                             sim.kernels(25.0).kernelCount() + 1));
  EXPECT_EQ(eval.sums, 2u);
  EXPECT_EQ(eval.spectra, 1u);
}

TEST(Objective, TargetShapeMismatchThrows) {
  LithoSimulator& sim = coarseSim();
  BitGrid wrong(16, 16, 0);
  EXPECT_THROW(IltObjective(sim, wrong, IltConfig{}), InvalidArgument);
}

TEST(Objective, EpeValueCountsObviousViolations) {
  // A blank mask prints nothing; every EPE sample sees a missing edge and
  // the soft violation count approaches the sample count.
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.targetTerm = TargetTerm::kEpe;
  cfg.beta = 0.0;
  IltObjective obj(sim, target, cfg);
  const auto eval =
      obj.evaluate(RealGrid(sim.gridSize(), sim.gridSize(), 0.0), false);
  // A fully missing pattern mismatches exactly the inner half of each EPE
  // window, which sits right at the violation threshold: the soft count is
  // ~0.5 per sample (the hard EPE evaluator reports a full violation).
  const double sampleCount = static_cast<double>(obj.samples().size());
  EXPECT_GT(sampleCount, 10.0);
  EXPECT_GT(eval.targetValue, 0.4 * sampleCount);
  EXPECT_LE(eval.targetValue, sampleCount + 1e-9);
}

// --------------------------------------------------- gradient vs FD

struct GradCase {
  const char* name;
  TargetTerm term;
  double gamma;
  double beta;
  double reg = 0.0;
};

class GradientCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradientCheck, PerKernelGradientMatchesFiniteDifference) {
  const GradCase& gc = GetParam();
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();

  IltConfig cfg;
  cfg.targetTerm = gc.term;
  cfg.gamma = gc.gamma;
  cfg.alpha = 1.0;
  cfg.beta = gc.beta;
  cfg.regWeight = gc.reg;
  cfg.gradientMode = GradientMode::kPerKernel;
  cfg.inLoopKernels = 6;
  IltObjective obj(sim, target, cfg);

  RealGrid mask = smoothMask(target, 0.25, 0.75);
  // Perturb a few pixels deterministically off the binary plateau.
  Rng rng(99);
  for (auto& v : mask) v += rng.uniform(-0.05, 0.05);

  const auto eval = obj.evaluate(mask, true);
  ASSERT_FALSE(eval.gradMask.empty());

  // Check the top-gradient pixels plus a few random ones.
  struct Pick {
    int r, c;
  };
  std::vector<Pick> picks;
  {
    double best = 0.0;
    int br = 0;
    int bc = 0;
    for (int r = 0; r < mask.rows(); ++r) {
      for (int c = 0; c < mask.cols(); ++c) {
        if (std::fabs(eval.gradMask(r, c)) > best) {
          best = std::fabs(eval.gradMask(r, c));
          br = r;
          bc = c;
        }
      }
    }
    ASSERT_GT(best, 0.0);
    picks.push_back({br, bc});
    picks.push_back({br, std::min(mask.cols() - 1, bc + 2)});
    picks.push_back({std::max(0, br - 3), bc});
    for (int i = 0; i < 4; ++i) {
      picks.push_back({static_cast<int>(rng.below(mask.rows())),
                       static_cast<int>(rng.below(mask.cols()))});
    }
  }

  const double h = 2e-5;
  for (const auto& p : picks) {
    RealGrid plus = mask;
    RealGrid minus = mask;
    plus(p.r, p.c) += h;
    minus(p.r, p.c) -= h;
    const double fPlus = obj.evaluate(plus, false).value;
    const double fMinus = obj.evaluate(minus, false).value;
    const double fd = (fPlus - fMinus) / (2 * h);
    const double analytic = eval.gradMask(p.r, p.c);
    const double scale = std::max({std::fabs(fd), std::fabs(analytic), 1e-6});
    EXPECT_NEAR(analytic, fd, 2e-3 * scale)
        << gc.name << " pixel (" << p.r << "," << p.c << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Terms, GradientCheck,
    ::testing::Values(
        GradCase{"id_gamma2", TargetTerm::kImageDiff, 2.0, 0.0},
        GradCase{"id_gamma4", TargetTerm::kImageDiff, 4.0, 0.0},
        GradCase{"id_gamma4_pvb", TargetTerm::kImageDiff, 4.0, 1.0},
        GradCase{"epe", TargetTerm::kEpe, 4.0, 0.0},
        GradCase{"epe_pvb", TargetTerm::kEpe, 4.0, 0.5},
        GradCase{"id_gamma4_reg", TargetTerm::kImageDiff, 4.0, 0.0, 0.3}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

TEST(GradientCheckDiffusion, BlurAdjointChainMatchesFiniteDifference) {
  // With resist diffusion enabled the gradient picks up a Gaussian-blur
  // adjoint; validate the full chain against central differences.
  OpticsConfig optics;
  optics.pixelNm = 16;
  ResistModel resist;
  resist.diffusionSigmaNm = 24.0;
  LithoSimulator sim(optics, resist);
  const BitGrid target = coarseTarget();

  IltConfig cfg;
  cfg.targetTerm = TargetTerm::kImageDiff;
  cfg.gamma = 2.0;
  cfg.beta = 0.5;
  cfg.gradientMode = GradientMode::kPerKernel;
  cfg.inLoopKernels = 6;
  IltObjective obj(sim, target, cfg);

  RealGrid mask = smoothMask(target, 0.25, 0.75);
  const auto eval = obj.evaluate(mask, true);

  // Probe the strongest-gradient pixel and two offsets.
  double best = 0.0;
  int br = 0;
  int bc = 0;
  for (int r = 0; r < mask.rows(); ++r) {
    for (int c = 0; c < mask.cols(); ++c) {
      if (std::fabs(eval.gradMask(r, c)) > best) {
        best = std::fabs(eval.gradMask(r, c));
        br = r;
        bc = c;
      }
    }
  }
  ASSERT_GT(best, 0.0);
  const double h = 2e-5;
  for (const auto& [r, c] : {std::pair{br, bc}, std::pair{br, bc + 3},
                             std::pair{std::max(0, br - 4), bc}}) {
    RealGrid plus = mask;
    RealGrid minus = mask;
    plus(r, c) += h;
    minus(r, c) -= h;
    const double fd = (obj.evaluate(plus, false).value -
                       obj.evaluate(minus, false).value) /
                      (2 * h);
    const double analytic = eval.gradMask(r, c);
    const double scale = std::max({std::fabs(fd), std::fabs(analytic), 1e-6});
    EXPECT_NEAR(analytic, fd, 2e-3 * scale) << "pixel (" << r << "," << c
                                            << ")";
  }
}

TEST(GradientModes, CombinedKernelPointsTheSameWay) {
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.inLoopKernels = 6;
  cfg.gradientMode = GradientMode::kPerKernel;
  IltObjective exact(sim, target, cfg);
  cfg.gradientMode = GradientMode::kCombinedKernel;
  IltObjective combined(sim, target, cfg);

  const RealGrid mask = smoothMask(target);
  const RealGrid gExact = exact.evaluate(mask, true).gradMask;
  const RealGrid gComb = combined.evaluate(mask, true).gradMask;

  double dot = 0.0;
  double nExact = 0.0;
  double nComb = 0.0;
  for (std::size_t i = 0; i < gExact.size(); ++i) {
    dot += gExact.data()[i] * gComb.data()[i];
    nExact += gExact.data()[i] * gExact.data()[i];
    nComb += gComb.data()[i] * gComb.data()[i];
  }
  const double cosine = dot / std::sqrt(nExact * nComb);
  EXPECT_GT(cosine, 0.7);  // same descent direction family
}

TEST(Objective, PsmMaskEvaluatesWithNegativeBackground) {
  // The objective itself is mask-technology agnostic: feed a PSM-style
  // mask (negative background) and confirm value and gradient exist and
  // the FD check holds at one pixel.
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.gradientMode = GradientMode::kPerKernel;
  cfg.inLoopKernels = 6;
  cfg.beta = 0.0;
  IltObjective obj(sim, target, cfg);

  RealGrid mask(sim.gridSize(), sim.gridSize(), -0.2);
  for (int r = 20; r < 40; ++r) {
    for (int c = 20; c < 44; ++c) mask(r, c) = 0.9;
  }
  const auto eval = obj.evaluate(mask, true);
  EXPECT_GT(eval.value, 0.0);
  ASSERT_FALSE(eval.gradMask.empty());

  const double h = 2e-5;
  const int r = 20;
  const int c = 30;  // feature edge pixel
  RealGrid plus = mask;
  RealGrid minus = mask;
  plus(r, c) += h;
  minus(r, c) -= h;
  const double fd = (obj.evaluate(plus, false).value -
                     obj.evaluate(minus, false).value) /
                    (2 * h);
  const double scale =
      std::max({std::fabs(fd), std::fabs(eval.gradMask(r, c)), 1e-6});
  EXPECT_NEAR(eval.gradMask(r, c), fd, 2e-3 * scale);
}

TEST(Objective, RegularizerPenalizesRoughMasks) {
  LithoSimulator& sim = coarseSim();
  const BitGrid target = coarseTarget();
  IltConfig cfg;
  cfg.regWeight = 1.0;
  cfg.alpha = 0.0;
  cfg.beta = 0.0;
  IltObjective obj(sim, target, cfg);

  const int n = sim.gridSize();
  RealGrid smooth(n, n, 0.5);
  RealGrid rough(n, n, 0.5);
  Rng rng(5);
  for (auto& v : rough) v = rng.uniform(0.0, 1.0);
  const double fSmooth = obj.evaluate(smooth, false).regValue;
  const double fRough = obj.evaluate(rough, false).regValue;
  EXPECT_DOUBLE_EQ(fSmooth, 0.0);
  EXPECT_GT(fRough, 1.0);
}

// ------------------------------------------------------------ optimizer

TEST(Optimizer, ObjectiveImprovesAndBestIsTracked) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 8;
  IltObjective obj(sim, target, cfg);
  const RealGrid init = toReal(insertSraf(target, 8));

  const auto initialValue = obj.evaluate(init, false).value;
  const OptimizeResult res = optimizeMask(obj, init);
  EXPECT_LT(res.bestObjective, initialValue);
  EXPECT_LE(static_cast<int>(res.history.size()), cfg.maxIterations);
  EXPECT_GE(res.bestIteration, 0);
  // Best objective is the minimum of the recorded ones (or the initial).
  for (const auto& rec : res.history) {
    EXPECT_GE(rec.objective, res.bestObjective - 1e-9);
  }
}

TEST(Optimizer, StepAdaptsWithProgress) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 6;
  cfg.jumpPeriod = 100;  // no jumps in this test
  IltObjective obj(sim, target, cfg);
  const OptimizeResult res = optimizeMask(obj, toReal(insertSraf(target, 8)));
  ASSERT_GE(res.history.size(), 2u);
  // The recorded step already includes the post-update adaptation: it
  // must grow after improving iterations and shrink after regressions.
  double prevStep = cfg.stepSize;
  for (const auto& rec : res.history) {
    if (rec.improved) {
      EXPECT_GT(rec.stepSize, prevStep * 0.999);
    } else {
      EXPECT_LT(rec.stepSize, prevStep * 1.001);
    }
    prevStep = rec.stepSize;
  }
}

TEST(Optimizer, DeterministicAcrossRuns) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 4;
  IltObjective obj(sim, target, cfg);
  const RealGrid init = toReal(insertSraf(target, 8));
  const OptimizeResult a = optimizeMask(obj, init);
  const OptimizeResult b = optimizeMask(obj, init);
  EXPECT_EQ(a.bestMask, b.bestMask);
  EXPECT_EQ(a.history.size(), b.history.size());
}

TEST(Optimizer, CallbackSeesEveryIteration) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 5;
  IltObjective obj(sim, target, cfg);
  int calls = 0;
  int lastIter = 0;
  optimizeMask(obj, toReal(target),
               [&](const IterationRecord& rec, const RealGrid& mask) {
                 ++calls;
                 lastIter = rec.iteration;
                 EXPECT_EQ(mask.rows(), sim.gridSize());
               });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(lastIter, 5);
}

TEST(Optimizer, JumpFiresAfterStall) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 12;
  cfg.jumpPeriod = 1;    // any single non-improving step triggers a jump
  cfg.stepSize = 80.0;   // absurd step guarantees non-improving steps
  cfg.stepGrowth = 1.0;
  cfg.stepShrink = 1.0;
  IltObjective obj(sim, target, cfg);
  const OptimizeResult res = optimizeMask(obj, toReal(target));
  bool sawJump = false;
  for (const auto& rec : res.history) sawJump = sawJump || rec.jumped;
  EXPECT_TRUE(sawJump);
}

class DescentVariants : public ::testing::TestWithParam<DescentVariant> {};

TEST_P(DescentVariants, RunsAndImproves) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 8;
  cfg.descentVariant = GetParam();
  if (GetParam() != DescentVariant::kPlain) cfg.stepSize = 0.2;
  IltObjective obj(sim, target, cfg);
  const RealGrid init = toReal(insertSraf(target, 8));
  const double initial = obj.evaluate(init, false).value;
  const OptimizeResult res = optimizeMask(obj, init);
  EXPECT_LT(res.bestObjective, initial) << "variant did not improve";
  // Determinism per variant.
  const OptimizeResult res2 = optimizeMask(obj, init);
  EXPECT_EQ(res.bestMask, res2.bestMask);
}

INSTANTIATE_TEST_SUITE_P(Variants, DescentVariants,
                         ::testing::Values(DescentVariant::kPlain,
                                           DescentVariant::kMomentum,
                                           DescentVariant::kAdam),
                         [](const auto& info) {
                           switch (info.param) {
                             case DescentVariant::kPlain:
                               return "plain";
                             case DescentVariant::kMomentum:
                               return "momentum";
                             default:
                               return "adam";
                           }
                         });

// --------------------------------------------------------------- facade

TEST(Facade, MethodNames) {
  EXPECT_EQ(methodName(OpcMethod::kMosaicFast), "MOSAIC_fast");
  EXPECT_EQ(methodName(OpcMethod::kMosaicExact), "MOSAIC_exact");
  EXPECT_EQ(methodName(OpcMethod::kIltBaseline), "ILT_baseline");
}

TEST(Facade, DefaultConfigsMatchPaper) {
  const IltConfig fast = defaultIltConfig(OpcMethod::kMosaicFast, 2);
  EXPECT_EQ(fast.targetTerm, TargetTerm::kImageDiff);
  EXPECT_DOUBLE_EQ(fast.gamma, 4.0);
  EXPECT_GT(fast.beta, 0.0);

  const IltConfig exact = defaultIltConfig(OpcMethod::kMosaicExact, 2);
  EXPECT_EQ(exact.targetTerm, TargetTerm::kEpe);
  EXPECT_GT(exact.beta, 0.0);

  const IltConfig base = defaultIltConfig(OpcMethod::kIltBaseline, 2);
  EXPECT_EQ(base.targetTerm, TargetTerm::kImageDiff);
  EXPECT_DOUBLE_EQ(base.gamma, 2.0);
  EXPECT_DOUBLE_EQ(base.beta, 0.0);
}

TEST(Facade, RunOpcProducesBinaryMaskAndHistory) {
  LithoSimulator& sim = mediumSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 8);
  cfg.maxIterations = 6;
  const OpcResult res = runOpc(sim, target, OpcMethod::kMosaicFast, &cfg);
  EXPECT_EQ(res.method, "MOSAIC_fast");
  EXPECT_EQ(res.maskBinary.rows(), sim.gridSize());
  EXPECT_EQ(res.iterations, static_cast<int>(res.history.size()));
  EXPECT_GT(res.runtimeSec, 0.0);
  // Binary mask matches binarized continuous mask.
  EXPECT_EQ(res.maskBinary, MaskTransform::binarize(res.maskContinuous));
}

}  // namespace
}  // namespace mosaic
