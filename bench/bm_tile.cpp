/// \file bm_tile.cpp
/// Tiling-engine throughput: optimizes a replicated full chip through the
/// tile scheduler at 1/2/4 workers, reports tiles/sec and the parallel
/// speedup, and emits BENCH_tile.json for trend tracking. Kernel sets are
/// pre-cached on disk before timing so every run measures the scheduler,
/// not the one-off TCC eigendecomposition.
///
/// With --cache (or --cache-only) it also measures the pattern-library
/// cache on a repeated-cell chip: a cold run that fills the store, then a
/// warm run that must exact-hit, stitch a bit-identical mask, and beat the
/// cold wall time. Results land in BENCH_cache.json; --min-warm-speedup
/// and --min-hit-rate turn the measurement into a pass/fail gate (the
/// tier-1 `cache_effectiveness` ctest).

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "machine_stamp.hpp"
#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "tile/scheduler.hpp"

namespace {

/// Pattern-cache effectiveness phase. Returns false when a gate fails.
bool runCachePhase(const mosaic::Layout& chip, mosaic::ChipConfig cfg,
                   const std::string& jsonPath, double minWarmSpeedup,
                   double minHitRate) {
  using namespace mosaic;
  const std::string storeDir = "bm_tile_pattern_cache";
  std::filesystem::remove_all(storeDir);  // cold means cold
  cfg.patternCacheDir = storeDir;

  const ChipResult cold = optimizeChip(chip, cfg);
  MOSAIC_CHECK(cold.allOk(), "cold cache chip run failed");
  const ChipResult warmRun = optimizeChip(chip, cfg);
  MOSAIC_CHECK(warmRun.allOk(), "warm cache chip run failed");

  const double speedup = warmRun.wallSeconds > 0.0
                             ? cold.wallSeconds / warmRun.wallSeconds
                             : 0.0;
  const double hitRate = warmRun.cacheStats.hitRate();
  const BitGrid& coldMask = cold.stitched.maskBinary;
  const BitGrid& warmMask = warmRun.stitched.maskBinary;
  bool identical = coldMask.rows() == warmMask.rows() &&
                   coldMask.cols() == warmMask.cols();
  if (identical) {
    for (int r = 0; r < coldMask.rows() && identical; ++r) {
      for (int c = 0; c < coldMask.cols(); ++c) {
        if (coldMask(r, c) != warmMask(r, c)) {
          identical = false;
          break;
        }
      }
    }
  }

  std::printf("== pattern cache: %d tiles ==\n",
              cold.partition.tileCount());
  std::printf("cold: %.2f s (%llu misses, %llu inserted)\n",
              cold.wallSeconds,
              static_cast<unsigned long long>(cold.cacheStats.misses),
              static_cast<unsigned long long>(cold.cacheStats.inserts));
  std::printf("warm: %.2f s (%llu exact hits, %.1f%% hit rate)\n",
              warmRun.wallSeconds,
              static_cast<unsigned long long>(warmRun.cacheStats.exactHits),
              100.0 * hitRate);
  std::printf("warm speedup: %.2fx, stitched masks %s\n", speedup,
              identical ? "bit-identical" : "DIFFER");

  FILE* json = std::fopen(jsonPath.c_str(), "w");
  MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
  std::fprintf(
      json,
      "{\n  \"bench\": \"bm_tile_cache\",\n  \"machine\": %s,\n"
      "  \"tiles\": %d,\n"
      "  \"cold_seconds\": %.4f,\n  \"warm_seconds\": %.4f,\n"
      "  \"warm_speedup\": %.3f,\n  \"hit_rate\": %.4f,\n"
      "  \"exact_hits\": %llu,\n  \"misses_cold\": %llu,\n"
      "  \"bit_identical\": %s\n}\n",
      bench::machineStampJson().c_str(), cold.partition.tileCount(),
      cold.wallSeconds, warmRun.wallSeconds, speedup, hitRate,
      static_cast<unsigned long long>(warmRun.cacheStats.exactHits),
      static_cast<unsigned long long>(cold.cacheStats.misses),
      identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", jsonPath.c_str());

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr, "FAIL: warm stitched mask differs from cold\n");
    ok = false;
  }
  if (minWarmSpeedup > 0.0 && speedup < minWarmSpeedup) {
    std::fprintf(stderr, "FAIL: warm speedup %.2fx below the %.2fx floor\n",
                 speedup, minWarmSpeedup);
    ok = false;
  }
  if (minHitRate > 0.0 && hitRate < minHitRate) {
    std::fprintf(stderr, "FAIL: hit rate %.3f below the %.3f floor\n",
                 hitRate, minHitRate);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mosaic;
  int caseIdx = 1;
  int replicate = 2;
  int tileSize = 512;
  int halo = 128;
  int pixel = 16;
  int iterations = 5;
  std::string cacheDir = "bm_tile_kernels";
  std::string jsonPath = "BENCH_tile.json";
  std::string cacheJsonPath = "BENCH_cache.json";
  bool cacheBench = false;
  bool cacheOnly = false;
  double minWarmSpeedup = 0.0;
  double minHitRate = 0.0;
  std::string logLevel = "warn";

  CliParser cli("bm_tile", "tile scheduler throughput and parallel speedup");
  cli.addInt("case", &caseIdx, "testcase replicated into the chip");
  cli.addInt("replicate", &replicate, "replication factor per axis");
  cli.addInt("tile-size", &tileSize, "core tile edge in nm");
  cli.addInt("halo", &halo, "requested halo in nm (-1 = optics default)");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addInt("iters", &iterations, "optimizer iterations per tile");
  cli.addString("kernel-cache", &cacheDir, "kernel cache directory");
  cli.addString("json", &jsonPath, "output JSON path");
  cli.addFlag("cache", &cacheBench,
              "also measure the pattern cache (cold fill vs warm reuse)");
  cli.addFlag("cache-only", &cacheOnly,
              "run only the pattern-cache phase (the ctest gate)");
  cli.addString("cache-json", &cacheJsonPath,
                "pattern-cache phase output JSON path");
  cli.addDouble("min-warm-speedup", &minWarmSpeedup,
                "fail unless the warm run is this much faster (0 = report)");
  cli.addDouble("min-hit-rate", &minHitRate,
                "fail unless the warm hit rate reaches this (0 = report)");
  cli.addString("log", &logLevel, "log level");
  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));

    const Layout chip = replicateLayout(buildTestcase(caseIdx), replicate,
                                        replicate);
    ChipConfig cfg;
    cfg.tiling.tileSizeNm = tileSize;
    cfg.tiling.haloNm = halo;
    cfg.tiling.pixelNm = pixel;
    cfg.iterations = iterations;
    cfg.kernelCacheDir = cacheDir;

    if (cacheOnly) {
      return runCachePhase(chip, cfg, cacheJsonPath, minWarmSpeedup,
                           minHitRate)
                 ? 0
                 : 1;
    }

    // Untimed warm-up run: populates the on-disk kernel cache and touches
    // every code path once.
    setParallelism(1);
    const ChipResult warm = optimizeChip(chip, cfg);
    MOSAIC_CHECK(warm.allOk(), "warm-up chip run failed");
    const int tiles = warm.partition.tileCount();

    struct Run {
      int workers;
      double seconds;
      double tilesPerSec;
    };
    std::vector<Run> runs;
    TextTable table;
    table.setHeader({"workers", "time (s)", "tiles/s", "speedup"});
    for (const int workers : {1, 2, 4}) {
      setParallelism(workers);
      const ChipResult res = optimizeChip(chip, cfg);
      MOSAIC_CHECK(res.allOk(), "chip run failed at " << workers
                                                      << " workers");
      const double seconds = res.wallSeconds;
      runs.push_back({workers, seconds, tiles / seconds});
      table.addRow({std::to_string(workers), TextTable::num(seconds, 2),
                    TextTable::num(tiles / seconds, 2),
                    TextTable::num(runs.front().seconds / seconds, 2)});
    }
    setParallelism(0);

    std::printf("== bm_tile: %d tiles of %d nm window, %d iters ==\n", tiles,
                warm.partition.windowNm, iterations);
    std::printf("%s", table.render().c_str());
    const double speedup4 = runs.front().seconds / runs.back().seconds;
    std::printf("speedup at 4 workers: %.2fx (hardware threads: %d)\n",
                speedup4, hardwareParallelism());

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_tile\",\n  \"machine\": %s,\n"
                 "  \"chip_nm\": %d,\n"
                 "  \"tiles\": %d,\n  \"window_nm\": %d,\n"
                 "  \"iterations\": %d,\n  \"runs\": [\n",
                 bench::machineStampJson().c_str(), chip.sizeNm, tiles,
                 warm.partition.windowNm, iterations);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(json,
                   "    {\"workers\": %d, \"seconds\": %.4f, "
                   "\"tiles_per_sec\": %.3f}%s\n",
                   runs[i].workers, runs[i].seconds, runs[i].tilesPerSec,
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"speedup_4\": %.3f\n}\n", speedup4);
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());

    if (cacheBench &&
        !runCachePhase(chip, cfg, cacheJsonPath, minWarmSpeedup,
                       minHitRate)) {
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_tile: %s\n", e.what());
    return 1;
  }
  return 0;
}
