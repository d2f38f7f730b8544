#include "opc/objective.hpp"

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "math/backend.hpp"
#include "math/scratch.hpp"
#include "math/stats.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

IltObjective::IltObjective(const LithoSimulator& sim, BitGrid target,
                           IltConfig config)
    : sim_(sim),
      target_(std::move(target)),
      config_(std::move(config)) {
  config_.validate();
  const int n = sim_.gridSize();
  MOSAIC_CHECK(target_.rows() == n && target_.cols() == n,
               "target raster is " << target_.rows() << "x" << target_.cols()
                                   << ", simulator grid is " << n);
  targetReal_ = toReal(target_);
  const int pixelNm = sim_.optics().pixelNm;
  samples_ = extractSamples(target_, config_.sampleSpacingNm / pixelNm);
  epeHalfWidthPx_ = std::max(
      1, static_cast<int>(std::lround(config_.epeThresholdNm / pixelNm)));
  // Bind the in-loop SOCS truncation at every focus evaluate() images at,
  // so a count widened through a degenerate cluster is reported once here
  // instead of passing silently on every evaluation.
  if (config_.inLoopKernels > 0) {
    std::set<double> foci{nominalCorner().focusNm};
    if (config_.beta > 0.0) {
      for (const auto& corner : config_.pvbCorners) foci.insert(corner.focusNm);
    }
    for (const double focus : foci) {
      (void)sim_.inLoopKernelCount(focus, config_.inLoopKernels);
    }
  }
}

RealGrid IltObjective::imageDiffGradientField(const RealGrid& zNominal,
                                              double* valueOut) const {
  // F_id = sum |Z - Zt|^gamma  (Eq. 16; |.| so odd gamma stays a metric).
  // dF/dI = gamma |Z - Zt|^(gamma-1) sign(Z - Zt) * thetaZ Z (1 - Z).
  const double gamma = config_.gamma;
  const ResistModel& resist = sim_.resist();
  RealGrid g(zNominal.rows(), zNominal.cols());
  double value = 0.0;
  for (std::size_t i = 0; i < zNominal.size(); ++i) {
    const double d = zNominal.data()[i] - targetReal_.data()[i];
    const double ad = std::fabs(d);
    value += std::pow(ad, gamma);
    const double z = zNominal.data()[i];
    const double dZdI = resist.thetaZ * z * (1.0 - z);
    const double sign = (d >= 0.0) ? 1.0 : -1.0;
    g.data()[i] = gamma * std::pow(ad, gamma - 1.0) * sign * dZdI;
  }
  *valueOut = value;
  return g;
}

RealGrid IltObjective::epeGradientField(const RealGrid& zNominal,
                                        double* valueOut) const {
  // Eq. 9-14. For each sample point, Dsum is the squared image difference
  // summed over the EPE window perpendicular to the edge; the sigmoid of
  // (Dsum - tau) is the soft violation. The per-sample outer derivatives
  // theta_epe * s * (1 - s) are accumulated into a per-pixel weight field
  // W, after which dF/dZ = W * 2 (Z - Zt) -- identical algebra to the
  // paper's per-sample Eq. 14 sum, evaluated with one convolution pair.
  const int rows = zNominal.rows();
  const int cols = zNominal.cols();
  // Violation when Dsum >= th_epe (Eq. 11): with pixel-counting D, the
  // threshold is the half-window width w (a fully missing edge mismatches
  // exactly the inner half of the window).
  const int w = epeHalfWidthPx_;
  const double tau = static_cast<double>(w);
  const ResistModel& resist = sim_.resist();

  // Squared image difference D (Eq. 10).
  RealGrid d2(rows, cols);
  for (std::size_t i = 0; i < d2.size(); ++i) {
    const double d = zNominal.data()[i] - targetReal_.data()[i];
    d2.data()[i] = d * d;
  }

  RealGrid weight(rows, cols, 0.0);
  double value = 0.0;
  for (const auto& s : samples_) {
    double dsum = 0.0;
    // Window spans w pixels on each side of the boundary, along the
    // direction perpendicular to the edge.
    const int lo = s.boundary - w;
    const int hi = s.boundary + w - 1;
    for (int t = lo; t <= hi; ++t) {
      if (s.horizontal) {
        if (t >= 0 && t < rows) dsum += d2(t, s.along);
      } else {
        if (t >= 0 && t < cols) dsum += d2(s.along, t);
      }
    }
    const double sig =
        1.0 / (1.0 + std::exp(-config_.thetaEpe * (dsum - tau)));
    value += sig;
    const double outer = config_.thetaEpe * sig * (1.0 - sig);
    for (int t = lo; t <= hi; ++t) {
      if (s.horizontal) {
        if (t >= 0 && t < rows) weight(t, s.along) += outer;
      } else {
        if (t >= 0 && t < cols) weight(s.along, t) += outer;
      }
    }
  }

  RealGrid g(rows, cols);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double z = zNominal.data()[i];
    const double dZdI = resist.thetaZ * z * (1.0 - z);
    g.data()[i] = weight.data()[i] * 2.0 *
                  (z - targetReal_.data()[i]) * dZdI;
  }
  *valueOut = value;
  return g;
}

void IltObjective::accumulateGradient(const ComplexGrid& maskSpectrum,
                                      const KernelSet& kernels,
                                      const RealGrid& gField,
                                      ComplexGrid& accum) const {
  MOSAIC_SPAN("objective.gradient");
  // The per-kernel convolution chains of Eq. 17 run on the simulator's
  // execution backend (same selection as the aerial path), which adds
  // them, flip included, into the shared spectral accumulator. With
  // resist diffusion the observed intensity is Blur(I_raw); the blur is
  // self-adjoint, so the backend blurs dF/dI_observed into dF/dI_raw.
  std::vector<exec::SpectrumView> views;
  std::vector<double> weights;
  if (config_.gradientMode == GradientMode::kCombinedKernel) {
    const SparseSpectrum& spec = kernels.combined;
    views.push_back({spec.flatIndex.data(), spec.value.data(),
                     spec.flatIndex.size()});
    weights.push_back(1.0);
  } else {
    const int count = kernels.truncatedCount(config_.inLoopKernels);
    for (int k = 0; k < count; ++k) {
      const SparseSpectrum& spec = kernels.kernels[static_cast<std::size_t>(k)];
      views.push_back({spec.flatIndex.data(), spec.value.data(),
                       spec.flatIndex.size()});
      weights.push_back(kernels.weights[static_cast<std::size_t>(k)]);
    }
  }
  sim_.activeBackend().accumulateGradientChains(
      maskSpectrum, views.data(), weights.data(),
      static_cast<int>(views.size()), gField,
      sim_.resist().diffusionSigmaNm / sim_.optics().pixelNm, accum);
}

IltObjective::Evaluation IltObjective::evaluate(const RealGrid& mask,
                                                bool needGradient) const {
  const int n = sim_.gridSize();
  MOSAIC_CHECK(mask.rows() == n && mask.cols() == n, "mask grid mismatch");
  MOSAIC_SPAN("objective.evaluate");

  Evaluation eval;
  const ComplexGrid maskSpectrum = sim_.maskSpectrum(mask);

  // One SOCS sum per distinct focus (Eq. 18): the nominal corner and every
  // PV corner at its focus share one dose-1 image, and each corner applies
  // its dose in the epilogue below.
  std::vector<ProcessCorner> imaged{nominalCorner()};
  if (config_.beta > 0.0) {
    imaged.insert(imaged.end(), config_.pvbCorners.begin(),
                  config_.pvbCorners.end());
  }
  std::map<double, RealGrid> aerial =
      sim_.aerialByFocus(maskSpectrum, imaged, config_.inLoopKernels);

  // ---- nominal corner: design-target term ----
  RealGrid zNominal =
      sim_.printContinuous(aerial.at(nominalCorner().focusNm));

  double targetValue = 0.0;
  RealGrid gTarget = (config_.targetTerm == TargetTerm::kEpe)
                         ? epeGradientField(zNominal, &targetValue)
                         : imageDiffGradientField(zNominal, &targetValue);
  eval.targetValue = targetValue;
  // zNominal is no longer read below; hand the buffer to the evaluation
  // instead of deep-copying it.
  eval.zNominal = std::move(zNominal);

  // ---- process corners: F_pvb (Eq. 18) ----
  // Group the dF/dI fields by focus so each kernel set pays exactly one
  // convolution chain.
  std::map<double, RealGrid> gByFocus;
  auto addField = [&](double focus, const RealGrid& g, double scale) {
    auto it = gByFocus.find(focus);
    if (it == gByFocus.end()) {
      it = gByFocus.emplace(focus, RealGrid(n, n, 0.0)).first;
    }
    RealGrid& acc = it->second;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc.data()[i] += scale * g.data()[i];
    }
  };

  if (config_.alpha > 0.0) addField(0.0, gTarget, config_.alpha);

  double pvbValue = 0.0;
  if (config_.beta > 0.0) {
    // The corner epilogues only read the shared images, so they fan out
    // over the work-stealing pool. Each corner accumulates into its own
    // partial sum and field, and the merge below runs serially in corner
    // order, so the result is identical at every worker count.
    const std::size_t cornerCount = config_.pvbCorners.size();
    std::vector<double> cornerValue(cornerCount, 0.0);
    std::vector<RealGrid> cornerField(cornerCount);
    parallelFor(0, cornerCount, [&](std::size_t ci) {
      const auto& corner = config_.pvbCorners[ci];
      const RealGrid& aerialRaw = aerial.at(corner.focusNm);
      // Fused corner epilogue: dose scaling, resist sigmoid, dZ/dI, the
      // PVB residual and the dF/dI field all come out of one sweep over
      // the shared image (the Z/dZdI corner grids are never materialized).
      const ResistModel& resist = sim_.resist();
      RealGrid g;
      if (needGradient) g = RealGrid(n, n);
      double value = 0.0;
      for (std::size_t i = 0; i < aerialRaw.size(); ++i) {
        const double intensity = corner.dose * aerialRaw.data()[i];
        const double zv = resist.sigmoid(intensity);
        const double diff = zv - targetReal_.data()[i];
        value += diff * diff;
        if (needGradient) {
          // dF/dI_raw = 2 (Z - Zt) * dZ/dI * dose (intensity scales by
          // dose), with dZ/dI = theta_Z Z (1 - Z).
          const double dZdI = resist.thetaZ * zv * (1.0 - zv);
          g.data()[i] = 2.0 * diff * dZdI * corner.dose;
        }
      }
      cornerValue[ci] = value;
      if (needGradient) cornerField[ci] = std::move(g);
    });
    for (std::size_t ci = 0; ci < cornerCount; ++ci) {
      pvbValue += cornerValue[ci];
      if (needGradient) {
        addField(config_.pvbCorners[ci].focusNm, cornerField[ci],
                 config_.beta);
      }
    }
  }
  // Every epilogue has consumed its image; release them before the
  // gradient chains allocate their own scratch.
  aerial.clear();
  eval.pvbValue = pvbValue;

  if (needGradient) {
    // Every focus adds its chains to one spectral accumulator, and one
    // real-output inverse turns it into dF/dM = 2 Re(ifft(accum)).
    scratch::ComplexLease accumLease(n, n);
    ComplexGrid& accum = *accumLease;
    accum.fill({0.0, 0.0});
    for (const auto& [focus, g] : gByFocus) {
      accumulateGradient(maskSpectrum, sim_.kernels(focus), g, accum);
    }
    eval.gradMask = RealGrid(n, n);
    fft2dFor(n, n).inverseRealPartInto(accum, eval.gradMask);
    exec::fullTransforms().add(1);
    for (auto& v : eval.gradMask) v *= 2.0;
  }

  // Mask smoothness regularizer: F_reg = sum of squared forward
  // differences; dF_reg/dM is (minus) the discrete 5-point Laplacian with
  // mirrored (zero-flux) boundaries.
  if (config_.regWeight > 0.0) {
    double regValue = 0.0;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        const double m = mask(r, c);
        if (r + 1 < n) {
          const double d = mask(r + 1, c) - m;
          regValue += d * d;
        }
        if (c + 1 < n) {
          const double d = mask(r, c + 1) - m;
          regValue += d * d;
        }
      }
    }
    eval.regValue = regValue;
    if (needGradient) {
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          double g = 0.0;
          const double m = mask(r, c);
          if (r + 1 < n) g -= 2.0 * (mask(r + 1, c) - m);
          if (r > 0) g += 2.0 * (m - mask(r - 1, c));
          if (c + 1 < n) g -= 2.0 * (mask(r, c + 1) - m);
          if (c > 0) g += 2.0 * (m - mask(r, c - 1));
          eval.gradMask(r, c) += config_.regWeight * g;
        }
      }
    }
  }

  eval.value = config_.alpha * targetValue + config_.beta * pvbValue +
               config_.regWeight * eval.regValue;
  MOSAIC_FAILPOINT_DATA("objective.evaluate", &eval.value, 1);
  if (needGradient) {
    MOSAIC_FAILPOINT_DATA("objective.gradient", eval.gradMask.data(),
                          eval.gradMask.size());
  }
  return eval;
}

}  // namespace mosaic
