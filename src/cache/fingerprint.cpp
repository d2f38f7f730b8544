#include "cache/fingerprint.hpp"

#include <algorithm>
#include <vector>

#include "litho/kernel_cache.hpp"
#include "math/backend.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace mosaic {
namespace {

/// Clip `r` to `region`; invalid result means no overlap.
RectNm clipRect(const RectNm& r, const RectNm& region) {
  return {std::max(r.x0, region.x0), std::max(r.y0, region.y0),
          std::min(r.x1, region.x1), std::min(r.y1, region.y1)};
}

/// Canonical order: lexicographic on (x0, y0, x1, y1). The rect sets here
/// are disjoint by construction, so this order is unique for a given
/// geometry regardless of input order.
void sortRects(std::vector<RectNm>* rects) {
  std::sort(rects->begin(), rects->end(),
            [](const RectNm& a, const RectNm& b) {
              if (a.x0 != b.x0) return a.x0 < b.x0;
              if (a.y0 != b.y0) return a.y0 < b.y0;
              if (a.x1 != b.x1) return a.x1 < b.x1;
              return a.y1 < b.y1;
            });
}

/// Hash a sorted rect set translated by (-ax, -ay). The sub-pixel phase of
/// the anchor is mixed in by the caller, so equal digests imply the
/// geometries are a whole-pixel translation apart.
std::uint64_t hashRects(const std::vector<RectNm>& rects, int ax, int ay,
                        std::uint64_t seedMix) {
  Fnv1a h;
  h.mix(seedMix);
  h.mix(static_cast<int>(rects.size()));
  for (const RectNm& r : rects) {
    h.mix(r.x0 - ax);
    h.mix(r.y0 - ay);
    h.mix(r.x1 - ax);
    h.mix(r.y1 - ay);
  }
  return h.digest();
}

}  // namespace

std::uint64_t TileFingerprint::combined() const {
  Fnv1a h;
  h.mix(coreHash);
  h.mix(windowHash);
  h.mix(configHash);
  return h.digest();
}

std::string TileFingerprint::keyHex() const {
  return Fnv1a::hashHex(combined());
}

std::uint64_t iltConfigDigest(const IltConfig& cfg) {
  Fnv1a h;
  h.mix(static_cast<int>(cfg.targetTerm));
  h.mix(static_cast<int>(cfg.gradientMode));
  h.mix(cfg.alpha);
  h.mix(cfg.beta);
  h.mix(cfg.gamma);
  h.mix(cfg.regWeight);
  h.mix(cfg.thetaM);
  h.mix(cfg.maskLow);
  h.mix(cfg.maskHigh);
  h.mix(cfg.thetaEpe);
  h.mix(cfg.epeThresholdNm);
  h.mix(cfg.sampleSpacingNm);
  h.mix(cfg.inLoopKernels);
  h.mix(static_cast<int>(cfg.pvbCorners.size()));
  for (const ProcessCorner& c : cfg.pvbCorners) {
    h.mix(c.focusNm);
    h.mix(c.dose);
  }
  h.mix(cfg.maxIterations);
  h.mix(cfg.stepSize);
  h.mix(cfg.stepGrowth);
  h.mix(cfg.stepShrink);
  h.mix(cfg.tolRmsGradient);
  h.mix(cfg.jumpPeriod);
  h.mix(cfg.jumpFactor);
  h.mix(static_cast<int>(cfg.descentVariant));
  h.mix(cfg.momentum);
  h.mix(cfg.adamBeta1);
  h.mix(cfg.adamBeta2);
  h.mix(cfg.adamEpsilon);
  h.mix(cfg.maxRecoveries);
  h.mix(cfg.recoveryBackoff);
  h.mix(cfg.minRecoveryStep);
  // deadlineSeconds is deliberately excluded: a wall-clock budget changes
  // when a run stops, not what the converged solution is, and tying cache
  // keys to it would make identical problems miss across deployments with
  // different budgets. Runs cut short by a deadline are not inserted.
  return h.digest();
}

std::uint64_t solverConfigDigest(const OpticsConfig& optics,
                                 const IltConfig& ilt, int methodId,
                                 int windowNm, int pixelNm) {
  Fnv1a h;
  h.mix(opticsParameterDigest(optics));
  h.mix(iltConfigDigest(ilt));
  h.mix(methodId);
  h.mix(windowNm);
  h.mix(pixelNm);
  h.mix(exec::kSocsNumericsVersion);
  return h.digest();
}

TileFingerprint fingerprintWindow(const Layout& window,
                                  const RectNm& coreLocalNm, int pixelNm,
                                  std::uint64_t configHash) {
  MOSAIC_CHECK(pixelNm > 0, "fingerprint needs a positive pixel size");
  MOSAIC_CHECK(coreLocalNm.valid(), "fingerprint needs a valid core region");

  TileFingerprint fp;
  fp.configHash = configHash;
  fp.empty = window.rects.empty();

  // Core rect set: window geometry clipped to the core region.
  std::vector<RectNm> core;
  core.reserve(window.rects.size());
  for (const RectNm& r : window.rects) {
    const RectNm c = clipRect(r, coreLocalNm);
    if (c.valid()) core.push_back(c);
  }
  sortRects(&core);

  // The canonical anchor comes from the *core* content only: halo edits
  // must not move it, or the coreHash of an untouched cell would change
  // and near-miss detection would break. An all-halo window anchors at
  // the core region's own corner.
  int ax = coreLocalNm.x0;
  int ay = coreLocalNm.y0;
  if (!core.empty()) {
    ax = core.front().x0;  // sorted: front has the minimal x0
    ay = core.front().y0;
    for (const RectNm& r : core) ay = std::min(ay, r.y0);
  }
  fp.anchorPxCol = ax >= 0 ? ax / pixelNm : -((-ax + pixelNm - 1) / pixelNm);
  fp.anchorPxRow = ay >= 0 ? ay / pixelNm : -((-ay + pixelNm - 1) / pixelNm);
  const int phaseX = ax - fp.anchorPxCol * pixelNm;
  const int phaseY = ay - fp.anchorPxRow * pixelNm;

  // The sub-pixel phase and the core region's own shape are part of the
  // identity: the same rects rasterize differently at a different phase,
  // and a clamped edge core is a different problem than an interior one.
  Fnv1a seed;
  seed.mix(phaseX);
  seed.mix(phaseY);
  seed.mix(coreLocalNm.width());
  seed.mix(coreLocalNm.height());
  const std::uint64_t seedMix = seed.digest();

  fp.coreHash = hashRects(core, ax, ay, seedMix);

  std::vector<RectNm> all = window.rects;
  sortRects(&all);
  Fnv1a windowSeed;
  windowSeed.mix(seedMix);
  windowSeed.mix(window.sizeNm);
  fp.windowHash = hashRects(all, ax, ay, windowSeed.digest());
  return fp;
}

}  // namespace mosaic
