#include "opc/edge_opc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eval/epe.hpp"
#include "geometry/bitmap_ops.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace mosaic {
namespace {

/// Control point of a fragment: its middle, as an EPE sample.
SamplePoint controlPoint(const EdgeFragment& fragment) {
  const EdgeSegment& seg = fragment.segment;
  return SamplePoint{seg.horizontal, seg.boundary, (seg.lo + seg.hi) / 2,
                     seg.insideLow};
}

}  // namespace

std::vector<EdgeFragment> fragmentEdges(const BitGrid& target,
                                        int fragmentLengthPx) {
  MOSAIC_CHECK(fragmentLengthPx >= 2, "fragments need >= 2 pixels");
  std::vector<EdgeFragment> fragments;
  for (const auto& edge : extractEdges(target)) {
    const int len = edge.length();
    const int count = std::max(1, len / fragmentLengthPx);
    const int base = len / count;
    int cursor = edge.lo;
    for (int i = 0; i < count; ++i) {
      EdgeSegment piece = edge;
      piece.lo = cursor;
      piece.hi = (i + 1 == count) ? edge.hi : cursor + base - 1;
      cursor = piece.hi + 1;
      fragments.push_back(EdgeFragment{piece, 0});
    }
  }
  return fragments;
}

BitGrid applyFragmentBiases(const BitGrid& target,
                            const std::vector<EdgeFragment>& fragments) {
  BitGrid mask = target;
  const int rows = mask.rows();
  const int cols = mask.cols();
  auto paint = [&](const EdgeFragment& f, bool add) {
    const EdgeSegment& seg = f.segment;
    const int bias = f.biasPx;
    // Rows (or columns) covered by the move: outward from the boundary
    // for growth, inward for shrink.
    int p0;
    int p1;
    if (bias > 0) {
      // Outward = away from the inside.
      p0 = seg.insideLow ? seg.boundary : seg.boundary - bias;
      p1 = seg.insideLow ? seg.boundary + bias : seg.boundary;
    } else {
      // Inward strip to clear.
      const int b = -bias;
      p0 = seg.insideLow ? seg.boundary - b : seg.boundary;
      p1 = seg.insideLow ? seg.boundary : seg.boundary + b;
    }
    for (int p = p0; p < p1; ++p) {
      for (int t = seg.lo; t <= seg.hi; ++t) {
        const int r = seg.horizontal ? p : t;
        const int c = seg.horizontal ? t : p;
        if (r < 0 || r >= rows || c < 0 || c >= cols) continue;
        mask(r, c) = add ? 1u : 0u;
      }
    }
  };
  // Clear shrinks first, then paint growths (growth wins at corners --
  // light is easier to remove by neighbors than to create).
  for (const auto& f : fragments) {
    if (f.biasPx < 0) paint(f, false);
  }
  for (const auto& f : fragments) {
    if (f.biasPx > 0) paint(f, true);
  }
  return mask;
}

EdgeOpcResult runEdgeOpc(const LithoSimulator& sim, const BitGrid& target,
                         const EdgeOpcConfig& config) {
  const int pixelNm = sim.optics().pixelNm;
  MOSAIC_CHECK(config.fragmentLengthNm >= 2 * pixelNm,
               "fragment length below two pixels");
  const int maxBiasPx = std::max(1, config.maxBiasNm / pixelNm);
  const int maxStepPx = std::max(1, config.maxStepNm / pixelNm);
  // Bind the in-loop SOCS truncation once (a widening is logged here).
  (void)sim.inLoopKernelCount(nominalCorner().focusNm, config.inLoopKernels);

  EdgeOpcResult result;
  result.fragments =
      fragmentEdges(target, config.fragmentLengthNm / pixelNm);

  std::vector<SamplePoint> controls;
  controls.reserve(result.fragments.size());
  for (const auto& f : result.fragments) controls.push_back(controlPoint(f));

  // The assist features are part of the mask being iterated, so the
  // feedback loop sees exactly the mask it will emit.
  const BitGrid srafOverlay = config.sraf.enabled
                                  ? srafBand(target, pixelNm, config.sraf)
                                  : BitGrid(target.rows(), target.cols(), 0);

  BitGrid mask = target;
  double bestMeanEpe = std::numeric_limits<double>::infinity();
  std::vector<EdgeFragment> bestFragments = result.fragments;
  int bestViolations = std::numeric_limits<int>::max();
  for (int iter = 1; iter <= config.maxIterations; ++iter) {
    mask = bitOr(applyFragmentBiases(target, result.fragments), srafOverlay);
    const BitGrid printed = sim.printBinary(
        sim.aerial(toReal(mask), nominalCorner(), config.inLoopKernels));
    const EpeResult epe = measureEpe(printed, target, controls, pixelNm,
                                     /*thresholdNm=*/15.0);
    result.iterations = iter;
    // Keep the best iterate: fewest violations, mean |EPE| as tiebreak.
    if (epe.violations < bestViolations ||
        (epe.violations == bestViolations &&
         epe.meanAbsEpeNm < bestMeanEpe)) {
      bestViolations = epe.violations;
      bestMeanEpe = epe.meanAbsEpeNm;
      bestFragments = result.fragments;
    }

    bool anyMove = false;
    for (std::size_t i = 0; i < result.fragments.size(); ++i) {
      const double epePx = epe.perSample[i].epeNm / pixelNm;
      // Positive EPE = printed edge outside the target = too much light:
      // move the mask edge inward (negative bias change).
      int step = static_cast<int>(std::lround(-config.damping * epePx));
      step = std::clamp(step, -maxStepPx, maxStepPx);
      if (step == 0) continue;
      const int updated =
          std::clamp(result.fragments[i].biasPx + step, -maxBiasPx,
                     maxBiasPx);
      if (updated != result.fragments[i].biasPx) {
        result.fragments[i].biasPx = updated;
        anyMove = true;
      }
    }
    LOG_DEBUG("edge OPC iter " << iter << ": mean |EPE| "
                               << epe.meanAbsEpeNm << " nm, moved "
                               << (anyMove ? "yes" : "no"));
    if (!anyMove) break;  // converged (or fully clamped)
  }

  result.fragments = std::move(bestFragments);
  result.bestViolations = bestViolations;
  result.finalMeanAbsEpeNm = bestMeanEpe;
  result.mask = bitOr(applyFragmentBiases(target, result.fragments),
                      srafOverlay);
  return result;
}

}  // namespace mosaic
