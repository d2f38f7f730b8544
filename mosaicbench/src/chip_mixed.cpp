/// chip_mixed — the `mosaic_cli chip` path at 4 workers.
///
/// A seeded 4x4-tile chip (default 1024 nm tiles, 512^2 windows). The
/// lower half repeats one cell, so cache-aware scheduling pastes exact
/// hits and near-miss tiles can warm-start; the upper half holds distinct
/// seeded clips that miss and insert. Each chip gets a fresh pattern
/// store. The executor, cache-aware scheduling, pattern-store reads and
/// writes, and stitching do their work here; setup pays the largest
/// eigensolve of any workload.
///
/// Geometry: a tile window reaches half a tile into each neighbor. Cell
/// content sits in the core's x >= 512, y < 512 quadrant and clip content
/// in x < 512, y < 512, so a cell tile sees only its left, lower-left and
/// lower neighbors, and never the clips above it. That leaves four window
/// classes among the eight cell tiles (first column or not, last row or
/// not): four representatives and four exact-hit pastes.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "common.hpp"
#include "geometry/raster.hpp"
#include "opc/objective.hpp"
#include "opc/sraf.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"
#include "tile/scheduler.hpp"

namespace mosaicbench {
namespace {

using namespace mosaic;

constexpr int kWorkers = 4;
constexpr int kTiles = 4;  // per side
constexpr int kTileNm = 1024;
constexpr int kPixelNm = 4;
constexpr int kSetups = 3;
constexpr int kMaxChips = 6;
/// One chip takes about this long at 4 workers on the reference machine
/// (4 hardware threads, AVX2); a run optimizes seconds / this many chips,
/// so every run of a given length does the same work.
constexpr double kChipSecondsEstimate = 7.0;

/// Seeded small clip whose features lie in [32, 480]^2, shifted by
/// (dx, dy) inside a tile core.
std::vector<RectNm> quadrantClip(std::uint64_t seed, int dx, int dy) {
  RandomClipConfig cfg;
  cfg.featureCount = 6;
  cfg.maxLengthNm = 400;
  cfg.marginNm = 288;  // features inside [288, 736] of the 1024 nm clip
  for (std::uint64_t attempt = 0;; ++attempt) {
    const Layout clip = buildRandomClip(mixSeed(seed, attempt), cfg);
    if (clip.rects.empty()) continue;
    std::vector<RectNm> rects;
    for (const RectNm& r : clip.rects) {
      rects.push_back({r.x0 - 256 + dx, r.y0 - 256 + dy, r.x1 - 256 + dx,
                       r.y1 - 256 + dy});
    }
    return rects;
  }
}

Layout buildChip(std::uint64_t seed, int index) {
  Layout chip;
  chip.name = format("chip%d", index);
  chip.sizeNm = kTiles * kTileNm;
  const std::vector<RectNm> cell =
      quadrantClip(mixSeed(seed, 1000 + index), 512, 0);
  for (int row = 0; row < kTiles; ++row) {
    for (int col = 0; col < kTiles; ++col) {
      const int x0 = col * kTileNm;
      const int y0 = row * kTileNm;
      const bool cellTile = row >= kTiles / 2;
      const std::vector<RectNm> rects =
          cellTile ? cell
                   : quadrantClip(mixSeed(seed, 2000 + 64 * index +
                                                    row * kTiles + col),
                                  0, 0);
      for (const RectNm& r : rects) {
        chip.addRect(x0 + r.x0, y0 + r.y0, x0 + r.x1, y0 + r.y1);
      }
    }
  }
  return chip;
}

/// Chip-grid pixels of a tile core, less the stitch blend band, where the
/// stitched mask is exactly the owning tile's solution.
struct Interior {
  int r0, r1, c0, c1;
};
Interior coreInterior(const ChipPartition& part, const TilePlan& tile) {
  const int px = part.pixelNm;
  const int band = (part.blendNm + px - 1) / px + 1;
  return {tile.coreNm.y0 / px + band, tile.coreNm.y1 / px - band,
          tile.coreNm.x0 / px + band, tile.coreNm.x1 / px - band};
}

bool sameRows(const RealGrid& a, const Interior& ia, const RealGrid& b,
              const Interior& ib) {
  const std::size_t bytes =
      static_cast<std::size_t>(ia.c1 - ia.c0) * sizeof(double);
  for (int r = 0; r < ia.r1 - ia.r0; ++r) {
    if (std::memcmp(&a(ia.r0 + r, ia.c0), &b(ib.r0 + r, ib.c0), bytes) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result runChipMixed(const Options& opt, Tracer& tracer) {
  setParallelism(kWorkers);
  Result result;
  result.stamp["workers"] = std::to_string(kWorkers);

  // ---- inputs ----
  const int chipCount = std::clamp(
      static_cast<int>(std::lround(opt.seconds / kChipSecondsEstimate)), 1,
      kMaxChips);
  std::vector<Layout> chips;
  InputHash hash;
  for (int k = 0; k < chipCount; ++k) {
    chips.push_back(buildChip(opt.seed, k));
    hash.addLayout(chips.back());
  }
  result.stamp["input_hash"] = hash.hex();

  ChipConfig cfg;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.tiling.tileSizeNm = kTileNm;
  cfg.tiling.pixelNm = kPixelNm;
  const IltConfig baseConfig = defaultIltConfig(cfg.method, kPixelNm);
  std::vector<double> foci{nominalCorner().focusNm};
  for (const ProcessCorner& c : baseConfig.pvbCorners) {
    if (c.focusNm != foci.front()) foci.push_back(c.focusNm);
  }

  // ---- setup: partition, kernel sets for every focus, store opened ----
  std::vector<double> setupS;
  std::vector<double> partitionMs;
  std::map<double, std::vector<double>> kernelS;
  std::string kernelDir;
  OpticsConfig windowOptics = cfg.optics;
  std::unique_ptr<LithoSimulator> probeSim;  // the last set-up's simulator
  const Telemetry beforeSetup = Telemetry::read();
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = nowMs();
    ChipPartition part;
    {
      auto span = tracer.span("tile", "partition", format("setup%d", i));
      part = partitionChip(chips[0], cfg.tiling, cfg.optics);
    }
    partitionMs.push_back(nowMs() - t0);
    windowOptics.clipSizeNm = part.windowNm;
    windowOptics.pixelNm = part.pixelNm;
    kernelDir = format("%s/kernels%d", opt.workDir.c_str(), i);
    std::filesystem::create_directories(kernelDir);
    auto sim = std::make_unique<LithoSimulator>(windowOptics);
    sim->setKernelCacheDir(kernelDir);
    for (const double focus : foci) {
      auto span = tracer.span("litho", "kernels", format("setup%d/f%g", i, focus));
      const double k0 = nowMs();
      (void)sim->kernels(focus);
      kernelS[focus].push_back((nowMs() - k0) / 1000.0);
    }
    {
      auto span = tracer.span("cache", "open", format("setup%d", i));
      PatternStore store({format("%s/store_setup%d", opt.workDir.c_str(), i)});
    }
    setupS.push_back((nowMs() - t0) / 1000.0);
    probeSim = std::move(sim);
  }
  const Telemetry setupDelta = Telemetry::read().minus(beforeSetup);
  cfg.kernelCacheDir = kernelDir;

  // ---- measured chips ----
  std::mutex iterMutex;
  std::vector<double> iterationMs;
  std::vector<double> optimizedTileS;
  double tileBusyS = 0.0;
  long long tiles = 0, exact = 0, warm = 0, miss = 0, pasted = 0;
  long long representatives = 0, iterations = 0;
  std::vector<double> lookupMs;
  Telemetry chipDelta;
  double measuredMs = 0.0;
  for (const Layout& chip : chips) {
    cfg.patternCacheDir =
        format("%s/store_%s", opt.workDir.c_str(), chip.name.c_str());
    std::uint64_t chipSpan = 0;
    if (tracer.enabled()) {
      cfg.progressSink = [&](const std::string& scope,
                             const IterationRecord& rec) {
        const double now = nowMs();
        std::lock_guard<std::mutex> lock(iterMutex);
        iterationMs.push_back(rec.wallMs);
        tracer.add("opc", "iteration", chip.name + "/" + scope,
                   now - rec.wallMs, now, chipSpan);
      };
    }
    const Telemetry before = Telemetry::read();
    const double t0 = nowMs();
    ChipResult res;
    {
      auto span = tracer.span("tile", "optimize_chip", chip.name);
      chipSpan = span.id();
      res = optimizeChip(chip, cfg);
    }
    measuredMs += nowMs() - t0;
    chipDelta.accumulate(Telemetry::read().minus(before));

    // ---- output checks ----
    const ChipPartition& part = res.partition;
    result.attempted += part.tileCount();
    tiles += part.tileCount();
    representatives += res.representatives;
    for (const TileOutcome& o : res.outcomes) {
      if (!o.ok) {
        ++result.failed;
        result.check(false, format("%s tile r%dc%d not ok: %s",
                                   chip.name.c_str(), o.row, o.col,
                                   o.error.c_str()));
      }
      tileBusyS += o.seconds;
      iterations += o.iterations;
      if (o.fromCache) {
        ++pasted;
      } else if (!o.skippedEmpty) {
        optimizedTileS.push_back(o.seconds);
      }
      switch (o.cacheHit) {
        case CacheHitKind::kExact:
          ++exact;
          break;
        case CacheHitKind::kMiss:
          ++miss;
          break;
        default:
          ++warm;
      }
    }
    result.check(res.failed == 0 && !res.interrupted,
                 format("%s: %d/%d tiles ok", chip.name.c_str(),
                        res.succeeded, part.tileCount()));

    // Every pasted tile's core equals its representative's core, and both
    // equal the mask the store hands back for their fingerprint.
    const std::uint64_t configHash =
        solverConfigDigest(windowOptics, baseConfig,
                           static_cast<int>(cfg.method), part.windowNm,
                           part.pixelNm);
    std::map<std::uint64_t, std::size_t> repOf;
    std::vector<TileFingerprint> fps(part.tiles.size());
    for (std::size_t i = 0; i < part.tiles.size(); ++i) {
      const TilePlan& t = part.tiles[i];
      const RectNm coreLocal{t.coreNm.x0 - t.windowNm.x0,
                             t.coreNm.y0 - t.windowNm.y0,
                             t.coreNm.x1 - t.windowNm.x0,
                             t.coreNm.y1 - t.windowNm.y0};
      fps[i] = fingerprintWindow(t.window, coreLocal, part.pixelNm,
                                 configHash);
      if (res.outcomes[i].representative) repOf[fps[i].combined()] = i;
    }
    PatternStore store({cfg.patternCacheDir});
    // Traced runs time PatternStore::insert by copying each solution into
    // a second store.
    std::unique_ptr<PatternStore> copy;
    if (tracer.enabled()) {
      copy = std::make_unique<PatternStore>(PatternStoreConfig{
          format("%s/copy_%s", opt.workDir.c_str(), chip.name.c_str())});
    }
    const RealGrid& stitched = res.stitched.maskContinuous;
    int pasteChecks = 0, pasteMismatches = 0, storeMismatches = 0;
    for (std::size_t i = 0; i < part.tiles.size(); ++i) {
      const TileOutcome& o = res.outcomes[i];
      const Interior mine = coreInterior(part, part.tiles[i]);
      if (o.fromCache) {
        ++pasteChecks;
        const auto it = repOf.find(fps[i].combined());
        if (it == repOf.end() ||
            !sameRows(stitched, mine, stitched,
                      coreInterior(part, part.tiles[it->second]))) {
          ++pasteMismatches;
        }
      }
      if (!o.representative) continue;
      CacheLookup hit;
      {
        const std::string item = format("%s/r%dc%d", chip.name.c_str(),
                                        o.row, o.col);
        auto span = tracer.span("cache", "lookup", item);
        const double l0 = nowMs();
        hit = store.lookup(fps[i]);
        lookupMs.push_back(nowMs() - l0);
        if (copy && hit.kind == CacheHitKind::kExact) {
          auto insertSpan = tracer.span("cache", "insert", item);
          copy->insert(fps[i], hit.solution);
        }
      }
      // Window-local view of the core interior.
      const TilePlan& t = part.tiles[i];
      const int wr = t.windowNm.y0 / part.pixelNm;
      const int wc = t.windowNm.x0 / part.pixelNm;
      const Interior local{mine.r0 - wr, mine.r1 - wr, mine.c0 - wc,
                           mine.c1 - wc};
      if (hit.kind != CacheHitKind::kExact ||
          !sameRows(hit.solution.mask, local, stitched, mine)) {
        ++storeMismatches;
      } else if (tracer.enabled()) {
        // Probes: one direct call into each layer on the stored solution,
        // outside the timed region.
        const std::string item = format("%s/r%dc%d", chip.name.c_str(),
                                        o.row, o.col);
        auto probe = tracer.span("bench", "probe", item);
        const BitGrid target = rasterize(t.window, part.pixelNm);
        {
          auto span = tracer.span("opc", "insert_sraf", item);
          (void)insertSraf(target, part.pixelNm);
        }
        ComplexGrid spectrum;
        {
          auto span = tracer.span("litho", "mask_spectrum", item);
          spectrum = probeSim->maskSpectrum(hit.solution.mask);
        }
        {
          auto span = tracer.span("litho", "aerial", item);
          (void)probeSim->aerialFromSpectrum(spectrum, nominalCorner());
        }
        const IltObjective objective(*probeSim, target, baseConfig);
        auto span = tracer.span("opc", "evaluate", item);
        (void)objective.evaluate(hit.solution.mask, true);
      }
    }
    result.check(pasteMismatches == 0,
                 format("%s: %d pasted tile core(s) bit-identical to their "
                        "representative's (%d mismatched)",
                        chip.name.c_str(), pasteChecks - pasteMismatches,
                        pasteMismatches));
    result.check(storeMismatches == 0,
                 format("%s: %d representative core(s) bit-identical to the "
                        "stored solution (%d mismatched)",
                        chip.name.c_str(),
                        res.representatives - storeMismatches,
                        storeMismatches));
    std::filesystem::remove_all(cfg.patternCacheDir);
  }

  // ---- end-to-end metrics ----
  const double tilesPerS =
      static_cast<double>(tiles) / (measuredMs / 1000.0);
  std::vector<double> optimizedMs;
  for (const double s : optimizedTileS) optimizedMs.push_back(s * 1000.0);
  result.setE2e("setup_s", median(setupS), "s");
  result.setE2e("throughput_per_s", tilesPerS, "1/s");
  result.setE2e("latency_p50_ms", median(optimizedMs), "ms");
  result.setE2e("latency_tail_ms", tailOf(optimizedMs).value, "ms");
  const double t = static_cast<double>(tiles);
  result.line(format("setup_s: %.4f s (median of %d: partition + %zu kernel "
                     "sets at %d^2 + store opened)",
                     median(setupS), kSetups, foci.size(),
                     windowOptics.gridSize()));
  result.line(format("tiles_per_s: %.4f 1/s (%lld tiles in %d chip(s), "
                     "%.2f s of optimizeChip wall)",
                     tilesPerS, tiles, chipCount, measuredMs / 1000.0));
  result.line(describeLatency("optimized_tile_s", optimizedMs, "s", 1e-3));
  result.line(format("tile kinds: exact-hit paste %.3f, near-miss/translated "
                     "warm start %.3f, miss %.3f (base %lld tiles)",
                     exact / t, warm / t, miss / t, tiles));
  result.line(format("failed_frac: %.4g ratio (%lld of %lld tiles)",
                     static_cast<double>(result.failed) / t, result.failed,
                     result.attempted));

  // ---- per-layer metrics ----
  std::vector<double> allKernelS;
  for (const auto& [focus, values] : kernelS) {
    result.setLayer(format("litho.kernels_s.f%g", focus), median(values), "s");
    allKernelS.insert(allKernelS.end(), values.begin(), values.end());
  }
  result.setLayer("litho.kernels_s", median(allKernelS), "s");
  result.setLayer("litho.kernel_sets",
                  static_cast<double>(
                      setupDelta.count("litho.kernels.compute") +
                      chipDelta.count("litho.kernels.compute")),
                  "count");
  const double evals =
      static_cast<double>(chipDelta.count("objective.evaluate"));
  if (evals > 0) {
    result.setLayer("litho.aerial_sums_per_eval",
                    chipDelta.count("litho.aerial") / evals, "count");
    result.setLayer("litho.mask_spectra_per_eval",
                    chipDelta.counter("litho.mask_spectrum") / evals,
                    "count");
  }
  result.setLayer("opc.iterations", static_cast<double>(iterations), "count");
  if (!iterationMs.empty()) {
    result.setLayer("opc.iteration_ms", median(iterationMs), "ms");
  }
  result.setLayer("tile.partition_ms", median(partitionMs), "ms");
  result.setLayer("tile.optimize_s.p50", median(optimizedTileS), "s");
  double maxTile = 0.0;
  for (const double s : optimizedTileS) maxTile = std::max(maxTile, s);
  result.setLayer("tile.optimize_s.max", maxTile, "s");
  result.setLayer("tile.busy_frac",
                  tileBusyS / (kWorkers * measuredMs / 1000.0), "ratio");
  result.setLayer("support.pool_tasks",
                  static_cast<double>(chipDelta.counter("pool.tasks")),
                  "count");
  result.setLayer("support.pool_steals",
                  static_cast<double>(chipDelta.counter("pool.steals")),
                  "count");
  result.setLayer("support.pool_idle_ms", chipDelta.sumMs("pool.idle_ms"),
                  "ms");
  result.setLayer("cache.exact_hit_frac", exact / t, "ratio");
  result.setLayer("cache.paste_frac", pasted / t, "ratio");
  result.setLayer("cache.representatives",
                  static_cast<double>(representatives), "count");
  if (tracer.enabled()) {
    const auto names = tracer.byName();
    const auto mean = [&](const std::string& key) {
      const auto it = names.find(key);
      return it == names.end() ? 0.0 : it->second.meanMs();
    };
    result.setLayer("cache.lookup_ms", median(lookupMs), "ms");
    result.setLayer("cache.insert_ms", mean("cache.insert"), "ms");
    result.setLayer("litho.aerial_ms", mean("litho.aerial"), "ms");
    result.setLayer("opc.evaluate_ms", mean("opc.evaluate"), "ms");
    result.setLayer("opc.sraf_ms", mean("opc.insert_sraf"), "ms");
  }
  return result;
}

}  // namespace mosaicbench
