/// \file bm_parallel.cpp
/// Executor benchmarks (docs/performance.md, "Threading model"): the
/// persistent work-stealing pool against a plain spawn-per-call loop,
/// and cache-aware chip scheduling against unordered dispatch.
///
/// Three phases, all recorded in BENCH_parallel.json:
///   dispatch  per-call overhead of parallelFor on a small range — the
///             pool reuses warm workers where the baseline (spawnFor,
///             below) spawns and joins fresh std::threads every call.
///   nested    a replicated chip through the tile scheduler at 1/2/4
///             workers (outer tile loop + inner PV-corner loops share the
///             worker set), with the stitched masks checked bit-for-bit
///             across the three worker counts.
///   cache     a repetitive 10x10 cell chip, cold, with cache-aware
///             ordering (representatives first, then exact-hit pastes)
///             versus the same cold run unordered.
///
/// --dispatch-only with --min-dispatch-speedup 1.0 is the tier-1
/// `parallel_pool_smoke` ctest: the pool must never lose to spawn.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "machine_stamp.hpp"
#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "tile/scheduler.hpp"

namespace {

using namespace mosaic;

struct DispatchResult {
  double spawnUsPerCall = 0.0;
  double poolUsPerCall = 0.0;
  double speedup = 0.0;
};

/// The dispatch baseline: spawn workers-1 std::threads per call, split the
/// range by an atomic chunk counter, join.
void spawnFor(int workers, std::size_t n,
              const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (4 * static_cast<std::size_t>(workers)));
  const auto drain = [&] {
    for (std::size_t lo; (lo = next.fetch_add(chunk)) < n;) {
      for (std::size_t i = lo; i < std::min(n, lo + chunk); ++i) fn(i);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < workers; ++t) threads.emplace_back(drain);
  drain();
  for (std::thread& thread : threads) thread.join();
}

/// Per-call parallelFor overhead on a small range: the body is a handful
/// of arithmetic per index, so the measurement is dominated by dispatch
/// (thread spawn/join vs enqueue/wakeup), not by work.
DispatchResult runDispatchPhase(int workers, int range, int calls) {
  setParallelism(workers);
  std::vector<double> sink(static_cast<std::size_t>(range), 0.0);
  const std::function<void(std::size_t)> body = [&sink](std::size_t i) {
    double x = static_cast<double>(i) + 1.0;
    x = x * 1.0000001 + 0.5 / x;
    sink[i] += x;
  };
  const auto n = static_cast<std::size_t>(range);
  const auto measure = [&](const auto& dispatch) {
    for (int c = 0; c < calls / 10 + 1; ++c) dispatch();  // warm-up
    WallTimer timer;
    for (int c = 0; c < calls; ++c) dispatch();
    return timer.seconds() * 1e6 / calls;
  };

  DispatchResult r;
  r.poolUsPerCall = measure([&] { parallelFor(0, n, body); });
  r.spawnUsPerCall = measure([&] { spawnFor(workers, n, body); });
  r.speedup = r.poolUsPerCall > 0.0 ? r.spawnUsPerCall / r.poolUsPerCall
                                    : 0.0;
  std::printf("== dispatch overhead: range %d, %d workers, %d calls ==\n",
              range, workers, calls);
  std::printf("spawn: %8.1f us/call\npool:  %8.1f us/call  (%.1fx lower)\n",
              r.spawnUsPerCall, r.poolUsPerCall, r.speedup);
  return r;
}

/// A 512 nm cell with three bars — small enough that a tile optimizes in
/// well under a second, repetitive enough that a KxK replication collapses
/// to ~9 fingerprint classes (corner / edge / interior halo differences).
Layout repetitiveChip(int replicate) {
  Layout cell;
  cell.name = "bm_parallel_cell";
  cell.sizeNm = 512;
  cell.addRect(96, 80, 416, 144);
  cell.addRect(96, 224, 288, 288);
  cell.addRect(96, 368, 416, 432);
  return replicateLayout(cell, replicate, replicate);
}

ChipConfig chipConfig(const std::string& kernelCache) {
  ChipConfig cfg;
  cfg.tiling.tileSizeNm = 512;
  cfg.tiling.haloNm = 128;
  cfg.tiling.pixelNm = 16;
  cfg.optics.pixelNm = 16;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.iterations = 4;
  cfg.kernelCacheDir = kernelCache;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool dispatchOnly = false;
  int dispatchRange = 64;
  int dispatchCalls = 300;
  int dispatchWorkers = 4;
  int replicate = 10;
  double minDispatchSpeedup = 0.0;
  double maxNestedRatio = 0.0;
  double minHitRate = 0.0;
  std::string jsonPath = "BENCH_parallel.json";
  std::string logLevel = "warn";

  CliParser cli("bm_parallel",
                "work-stealing executor vs spawn-per-call dispatch, nested "
                "chip scaling, cache-aware tile ordering");
  cli.addFlag("dispatch-only", &dispatchOnly,
              "run only the dispatch-overhead phase (the ctest gate)");
  cli.addInt("range", &dispatchRange, "parallelFor range per dispatch call");
  cli.addInt("calls", &dispatchCalls, "timed parallelFor calls");
  cli.addInt("workers", &dispatchWorkers, "worker count for the dispatch phase");
  cli.addInt("replicate", &replicate,
             "cell replication per axis for the cache-aware phase");
  cli.addDouble("min-dispatch-speedup", &minDispatchSpeedup,
                "fail unless pool dispatch beats spawn by this (0 = report)");
  cli.addDouble("max-nested-ratio", &maxNestedRatio,
                "fail unless 2-worker chip time <= ratio * 1-worker time "
                "(0 = report)");
  cli.addDouble("min-hit-rate", &minHitRate,
                "fail unless the ordered cold run pastes this fraction of "
                "tiles from cache, and beats the unordered run (0 = report)");
  cli.addString("json", &jsonPath, "output JSON path");
  cli.addString("log", &logLevel, "log level");

  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));
    bool ok = true;

    // Phase 1: dispatch overhead.
    const DispatchResult dispatch =
        runDispatchPhase(dispatchWorkers, dispatchRange, dispatchCalls);
    if (minDispatchSpeedup > 0.0 && dispatch.speedup < minDispatchSpeedup) {
      std::fprintf(stderr,
                   "FAIL: pool dispatch speedup %.2fx below the %.2fx floor\n",
                   dispatch.speedup, minDispatchSpeedup);
      ok = false;
    }

    struct NestedRun {
      int workers;
      double seconds;
    };
    std::vector<NestedRun> nested;
    double nestedRatio2 = 0.0;
    bool bitIdentical = true;
    double orderedSeconds = 0.0, unorderedSeconds = 0.0, hitRate = 0.0;
    int representatives = 0, tiles = 0;

    if (!dispatchOnly) {
      // Phase 2: nested chip scaling and worker-count invariance.
      const std::string kernelCache = "bm_parallel_kernels";
      const Layout smallChip =
          replicateLayout(buildTestcase(1), 2, 2);
      ChipConfig cfg = chipConfig(kernelCache);
      setParallelism(1);
      const ChipResult warm = optimizeChip(smallChip, cfg);  // kernel cache
      MOSAIC_CHECK(warm.allOk(), "warm-up chip run failed");

      TextTable table;
      table.setHeader({"workers", "time (s)", "speedup"});
      BitGrid firstMask;
      for (const int workers : {1, 2, 4}) {
        setParallelism(workers);
        const ChipResult res = optimizeChip(smallChip, cfg);
        MOSAIC_CHECK(res.allOk(), "chip run failed at " << workers
                                                        << " workers");
        nested.push_back({workers, res.wallSeconds});
        table.addRow({std::to_string(workers),
                      TextTable::num(res.wallSeconds, 2),
                      TextTable::num(nested.front().seconds / res.wallSeconds,
                                     2)});
        if (workers == 1) {
          firstMask = res.stitched.maskBinary;
        } else if (res.stitched.maskBinary != firstMask) {
          bitIdentical = false;
        }
      }
      nestedRatio2 = nested[1].seconds / nested[0].seconds;
      std::printf("== nested chip: %d tiles ==\n",
                  warm.partition.tileCount());
      std::printf("%s", table.render().c_str());
      const int hwThreads =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
      std::printf("2-worker/1-worker ratio: %.2f (on %d hardware "
                  "thread(s)), masks across 1/2/4 workers: %s\n",
                  nestedRatio2, hwThreads,
                  bitIdentical ? "bit-identical" : "DIFFERS");
      const PoolStats stats = poolStats();
      std::printf("pool: %llu tasks, %llu stolen, %llu idle trims\n",
                  static_cast<unsigned long long>(stats.tasksExecuted),
                  static_cast<unsigned long long>(stats.tasksStolen),
                  static_cast<unsigned long long>(stats.idleTrims));
      if (!bitIdentical) {
        std::fprintf(stderr,
                     "FAIL: stitched mask depends on the worker count\n");
        ok = false;
      }
      if (maxNestedRatio > 0.0 && nestedRatio2 > maxNestedRatio) {
        if (hwThreads < 2) {
          // A second worker cannot speed anything up on one CPU; report
          // instead of failing (mirrors fft_simd_smoke without AVX2).
          std::printf("nested-ratio gate skipped: 1 hardware thread\n");
        } else {
          std::fprintf(stderr,
                       "FAIL: 2-worker ratio %.2f above the %.2f ceiling\n",
                       nestedRatio2, maxNestedRatio);
          ok = false;
        }
      }

      // Phase 3: cache-aware ordering, cold ordered vs cold unordered.
      setParallelism(4);
      const Layout chip = repetitiveChip(replicate);
      const auto coldRun = [&](bool ordered) {
        const std::string store = ordered ? "bm_parallel_cache_ordered"
                                          : "bm_parallel_cache_unordered";
        std::filesystem::remove_all(store);  // cold means cold
        ChipConfig c = chipConfig(kernelCache);
        c.patternCacheDir = store;
        c.cacheAwareOrder = ordered;
        const ChipResult res = optimizeChip(chip, c);
        MOSAIC_CHECK(res.allOk(), "cache phase chip run failed");
        return res;
      };
      const ChipResult ordered = coldRun(true);
      const ChipResult unordered = coldRun(false);
      orderedSeconds = ordered.wallSeconds;
      unorderedSeconds = unordered.wallSeconds;
      representatives = ordered.representatives;
      int pasted = 0;
      tiles = 0;
      for (const TileOutcome& o : ordered.outcomes) {
        if (o.skippedEmpty) continue;
        ++tiles;
        if (o.fromCache) ++pasted;
      }
      hitRate = tiles > 0 ? static_cast<double>(pasted) / tiles : 0.0;
      std::printf("== cache-aware ordering: %d tiles, %d classes ==\n",
                  tiles, representatives);
      std::printf("ordered cold:   %.2f s (%d optimized, %d pasted, %.1f%% "
                  "paste rate)\n",
                  orderedSeconds, representatives, pasted, 100.0 * hitRate);
      std::printf("unordered cold: %.2f s (%.2fx slower)\n", unorderedSeconds,
                  orderedSeconds > 0.0 ? unorderedSeconds / orderedSeconds
                                       : 0.0);
      if (minHitRate > 0.0) {
        if (hitRate < minHitRate) {
          std::fprintf(stderr,
                       "FAIL: paste rate %.3f below the %.3f floor\n",
                       hitRate, minHitRate);
          ok = false;
        }
        if (orderedSeconds >= unorderedSeconds) {
          std::fprintf(stderr,
                       "FAIL: ordered cold run (%.2f s) did not beat the "
                       "unordered run (%.2f s)\n",
                       orderedSeconds, unorderedSeconds);
          ok = false;
        }
      }
      setParallelism(0);
    }

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_parallel\",\n"
                 "  \"machine\": %s,\n"
                 "  \"dispatch\": {\"range\": %d, \"workers\": %d, "
                 "\"spawn_us_per_call\": %.2f, \"pool_us_per_call\": %.2f, "
                 "\"speedup\": %.2f}",
                 bench::machineStampJson().c_str(), dispatchRange,
                 dispatchWorkers, dispatch.spawnUsPerCall,
                 dispatch.poolUsPerCall, dispatch.speedup);
    if (!dispatchOnly) {
      std::fprintf(json, ",\n  \"nested\": {\"runs\": [");
      for (std::size_t i = 0; i < nested.size(); ++i) {
        std::fprintf(json, "{\"workers\": %d, \"seconds\": %.4f}%s",
                     nested[i].workers, nested[i].seconds,
                     i + 1 < nested.size() ? ", " : "");
      }
      std::fprintf(json, "], \"ratio_2w\": %.3f, \"bit_identical\": %s}",
                   nestedRatio2, bitIdentical ? "true" : "false");
      std::fprintf(json,
                   ",\n  \"cache_aware\": {\"tiles\": %d, \"classes\": %d, "
                   "\"paste_rate\": %.4f, \"ordered_seconds\": %.4f, "
                   "\"unordered_seconds\": %.4f}",
                   tiles, representatives, hitRate, orderedSeconds,
                   unorderedSeconds);
    }
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_parallel: %s\n", e.what());
    return 1;
  }
}
