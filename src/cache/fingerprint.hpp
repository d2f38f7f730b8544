#pragma once
/// \file fingerprint.hpp
/// Tile fingerprints for the pattern-library mask cache (docs/caching.md).
///
/// A fingerprint answers one question: "has this optimization problem been
/// solved before?" For a tile that means three independent things must
/// match — the geometry the optimizer corrects (the core), the geometry it
/// merely sees as optical context (the halo), and every knob that shapes
/// the solution (optics, ILT configuration, method, raster). Each gets its
/// own 64-bit FNV-1a digest:
///
///   - coreHash:   canonicalized rect set clipped to the core region,
///                 translated so its bounding-box corner sits at the
///                 origin. Translation-invariant by construction: the same
///                 standard cell placed anywhere in the chip (at the same
///                 sub-pixel phase) hashes identically.
///   - windowHash: the full window rect set under the same canonical
///                 translation — the "halo hash". Two tiles with equal
///                 coreHash but different windowHash contain the same cell
///                 in a different neighborhood: a near-miss, good for a
///                 warm start but not for verbatim reuse.
///   - configHash: opticsParameterDigest + every IltConfig field + the
///                 method + window/pixel geometry. A key therefore fully
///                 determines the solved mask.
///
/// The canonical anchor is carried alongside (in pixels) so a cache hit
/// whose content is translated within the window can be shifted back into
/// place.

#include <cstdint>
#include <string>

#include "geometry/layout.hpp"
#include "litho/optics.hpp"
#include "opc/ilt_config.hpp"

namespace mosaic {

/// The cache identity of one tile-sized optimization problem.
struct TileFingerprint {
  std::uint64_t coreHash = 0;    ///< canonical core-region geometry
  std::uint64_t windowHash = 0;  ///< canonical core + halo geometry
  std::uint64_t configHash = 0;  ///< optics + ILT config + method + raster
  /// Canonical translation applied to the rect set, in whole pixels
  /// (window-local; the sub-pixel phase is folded into the hashes, so two
  /// equal fingerprints are always an exact pixel shift apart).
  int anchorPxRow = 0;
  int anchorPxCol = 0;
  bool empty = false;  ///< no pattern anywhere in the window

  /// Exact-solution identity: same key => same solved mask, up to the
  /// anchor translation.
  [[nodiscard]] bool sameKey(const TileFingerprint& o) const {
    return coreHash == o.coreHash && windowHash == o.windowHash &&
           configHash == o.configHash;
  }
  /// Near-miss identity: same corrected geometry and solver, different
  /// optical neighborhood.
  [[nodiscard]] bool sameCore(const TileFingerprint& o) const {
    return coreHash == o.coreHash && configHash == o.configHash;
  }

  /// One combined digest over (coreHash, windowHash, configHash) — the
  /// on-disk entry name.
  [[nodiscard]] std::uint64_t combined() const;
  [[nodiscard]] std::string keyHex() const;

  bool operator==(const TileFingerprint&) const = default;
};

/// Digest of every IltConfig field that shapes the solution (weights,
/// sigmoid steepnesses, corner set, optimizer schedule, guardrails).
[[nodiscard]] std::uint64_t iltConfigDigest(const IltConfig& cfg);

/// Digest of everything outside the geometry: optics, ILT config, the
/// method id (pass the OpcMethod cast to int), window edge, pixel pitch
/// and the SOCS numerics version (exec::kSocsNumericsVersion). Feed the
/// result to fingerprintWindow as `configHash`.
[[nodiscard]] std::uint64_t solverConfigDigest(const OpticsConfig& optics,
                                               const IltConfig& ilt,
                                               int methodId, int windowNm,
                                               int pixelNm);

/// Fingerprint a tile window. `window` is the clipped, window-local layout
/// (TilePlan::window); `coreLocalNm` is the core region in the same
/// window-local coordinates; `pixelNm` the raster pitch; `configHash` from
/// solverConfigDigest.
[[nodiscard]] TileFingerprint fingerprintWindow(const Layout& window,
                                                const RectNm& coreLocalNm,
                                                int pixelNm,
                                                std::uint64_t configHash);

}  // namespace mosaic
