/// \file bm_fft.cpp
/// FFT engine benchmark (docs/performance.md). Times the 2-D
/// forward+inverse pair on the complex path (forward + inverse) against
/// the real-input/real-output path the simulator uses for masks and
/// gradients (forwardRealInto + inverseRealInto), across grid sizes and
/// thread counts. Each thread transforms its own grid through the shared
/// plan, which is the tile scheduler's access pattern. A second series
/// times the batched SOCS aerial + gradient workload per execution
/// backend; the two backends alternate inside every repetition and the
/// SIMD speedup is the median of the per-repetition scalar/SIMD ratios
/// (the --simd-gate the fft_simd_smoke ctest enforces). Emits
/// BENCH_fft.json; with --min-speedup S it exits nonzero
/// when the real path is not at least S times faster than the complex
/// path at the gate size (enforced at 1.0 -- "never slower" -- by the
/// fft_perf_smoke ctest).

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "machine_stamp.hpp"
#include "math/backend.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace mosaic;

ComplexGrid randomGrid(int n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexGrid g(n, n);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return g;
}

RealGrid randomRealGrid(int n, std::uint64_t seed) {
  Rng rng(seed);
  RealGrid g(n, n);
  for (auto& v : g) v = rng.uniform(0, 1);
  return g;
}

/// Runs `pair` (one forward+inverse round trip on a per-thread grid)
/// `iters` times on each of `threads` concurrent workers and returns the
/// best-of-`reps` wall time of one whole batch, in seconds.
template <typename PairFn>
double timeBatch(int threads, int iters, int reps, const PairFn& pair) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    if (threads <= 1) {
      for (int i = 0; i < iters; ++i) pair(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (int i = 0; i < iters; ++i) pair(t);
        });
      }
      for (auto& th : pool) th.join();
    }
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct Row {
  int size = 0;
  int threads = 0;
  double complexMs = 0.0;
  double realMs = 0.0;
};

// ---------------------------------------------------------------------------
// Execution-backend series: the batched SOCS aerial + gradient hot path
// (docs/performance.md "Execution backends"). Synthetic pupil-disc
// kernels reproduce the sparsity structure the cpu_simd pruning exploits
// (support ~ a disc around DC, a few percent of rows at production size).
// ---------------------------------------------------------------------------

struct SyntheticKernels {
  std::vector<std::vector<int>> flat;
  std::vector<std::vector<std::complex<double>>> values;
  std::vector<exec::SpectrumView> views;
  std::vector<double> weights;

  SyntheticKernels(int n, int count) {
    // Radius chosen so the live-row fraction matches real SOCS kernel
    // sets (~5-6% of rows at 1024^2; see litho/kernels).
    const int radius = std::max(3, n / 36);
    Rng rng(42);
    for (int k = 0; k < count; ++k) {
      std::vector<int> f;
      std::vector<std::complex<double>> v;
      for (int r = 0; r < n; ++r) {
        const int fr = (r <= n / 2) ? r : r - n;
        for (int c = 0; c < n; ++c) {
          const int fc = (c <= n / 2) ? c : c - n;
          if (fr * fr + fc * fc > radius * radius) continue;
          f.push_back(r * n + c);
          v.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
        }
      }
      flat.push_back(std::move(f));
      values.push_back(std::move(v));
      weights.push_back(1.0 / (1.0 + k));
    }
    for (int k = 0; k < count; ++k) {
      views.push_back({flat[static_cast<std::size_t>(k)].data(),
                       values[static_cast<std::size_t>(k)].data(),
                       flat[static_cast<std::size_t>(k)].size()});
    }
  }
};

struct BackendRow {
  const char* backend = nullptr;
  int size = 0;
  double aerialMs = 0.0;
  double gradMs = 0.0;
  double speedup = 0.0;  ///< median paired scalar total / this total
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

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  int gateSize = 1024;
  double minSpeedup = -1.0;
  bool smoke = false;
  bool simdSmoke = false;
  double simdGate = -1.0;
  std::string jsonPath = "BENCH_fft.json";

  CliParser cli("bm_fft",
                "FFT engine: complex vs real-input 2-D forward+inverse pair");
  cli.addInt("reps", &reps, "repetitions per config (minimum is reported)");
  cli.addInt("gate-size", &gateSize, "grid size the --min-speedup gate uses");
  cli.addDouble("min-speedup", &minSpeedup,
                "fail when the real path is not this many times faster "
                "than the complex path at the gate size, single thread "
                "(<0 = off)");
  cli.addFlag("smoke", &smoke,
              "gate size only, single thread (the tier-1 perf smoke)");
  cli.addFlag("simd-smoke", &simdSmoke,
              "backend series only, at the gate size (the fft_simd_smoke "
              "tier-1 test); skips cleanly without AVX2");
  cli.addDouble("simd-gate", &simdGate,
                "fail when cpu_simd is not this many times faster than "
                "cpu_scalar on the batched aerial+gradient path at the "
                "gate size, and verify scalar/SIMD equivalence (<0 = off)");
  cli.addString("json", &jsonPath, "output JSON path");
  try {
    if (!cli.parse(argc, argv)) return 0;
    MOSAIC_CHECK(reps > 0, "reps must be positive");
    MOSAIC_CHECK(Fft2d(gateSize, gateSize).rows() == gateSize,
                 "gate size must be a power of two");

    const std::vector<int> sizes =
        simdSmoke ? std::vector<int>{}
        : smoke   ? std::vector<int>{gateSize}
                  : std::vector<int>{256, 512, 1024, 2048};
    const std::vector<int> threadCounts =
        smoke ? std::vector<int>{1} : std::vector<int>{1, 2, 4};

    std::vector<Row> rows;
    double gateComplexMs = 0.0;
    double gateRealMs = 0.0;

    for (const int n : sizes) {
      const Fft2d& fft = fft2dFor(n, n);
      // Keep each batch around the cost of a few 1024^2 pairs so small
      // sizes are timed over many iterations and large ones stay quick.
      const long long px = static_cast<long long>(n) * n;
      const int iters =
          std::max(1, static_cast<int>((1024LL * 1024 * 2) / px));

      const int maxThreads = threadCounts.back();
      std::vector<ComplexGrid> complexGrids;
      std::vector<RealGrid> realGrids;
      std::vector<ComplexGrid> spectra;
      std::vector<RealGrid> realOut;
      for (int t = 0; t < maxThreads; ++t) {
        complexGrids.push_back(randomGrid(n, 100u + static_cast<unsigned>(t)));
        realGrids.push_back(randomRealGrid(n, 200u + static_cast<unsigned>(t)));
        spectra.emplace_back(n, n);
        realOut.emplace_back(n, n);
      }

      for (const int threads : threadCounts) {
        Row row;
        row.size = n;
        row.threads = threads;
        const double scale = 1000.0 / iters;

        const auto complexPair = [&](int t) {
          auto& g = complexGrids[static_cast<std::size_t>(t)];
          fft.forward(g);
          fft.inverse(g);
        };
        const auto realPair = [&](int t) {
          const std::size_t i = static_cast<std::size_t>(t);
          fft.forwardRealInto(realGrids[i], spectra[i]);
          fft.inverseRealInto(spectra[i], realOut[i]);
        };
        // Alternate the two paths rep by rep so both best-of times are
        // taken under the same machine load.
        for (int r = 0; r < reps; ++r) {
          const double c = scale * timeBatch(threads, iters, 1, complexPair);
          const double re = scale * timeBatch(threads, iters, 1, realPair);
          if (r == 0 || c < row.complexMs) row.complexMs = c;
          if (r == 0 || re < row.realMs) row.realMs = re;
        }
        rows.push_back(row);
        if (n == gateSize && threads == 1) {
          gateComplexMs = row.complexMs;
          gateRealMs = row.realMs;
        }
        std::printf("size %4d  threads %d  complex %8.2f ms  real %8.2f ms "
                    "(%.2fx)\n",
                    n, threads, row.complexMs, row.realMs,
                    row.complexMs / row.realMs);
        std::fflush(stdout);
      }
    }

    // ---- execution-backend series (batched SOCS aerial + gradient) ----
    std::vector<BackendRow> backendRows;
    bool simdSkipped = false;
    bool backendEquivOk = true;
    double gateSimdSpeedup = 0.0;
    if (!smoke) {
      if (simdSmoke && !exec::cpuHasAvx2()) {
        std::printf("fft_simd_smoke: CPU has no AVX2+FMA, skipping the "
                    "backend gate\n");
        simdSkipped = true;
      } else {
        const std::vector<int> backendSizes =
            simdSmoke ? std::vector<int>{gateSize}
                      : std::vector<int>{512, 1024};
        constexpr int kKernels = 24;  // one focus' SOCS kernel count
        for (const int n : backendSizes) {
          const Fft2d& fft = fft2dFor(n, n);
          const SyntheticKernels kern(n, kKernels);
          const ComplexGrid spectrum = randomGrid(n, 7);
          const RealGrid gField = randomRealGrid(n, 8);
          const exec::Backend* backends[] = {&exec::scalarBackend(),
                                             &exec::simdBackend()};
          constexpr int kBackends = 2;
          std::vector<RealGrid> intensity(kBackends, RealGrid(n, n, 0.0));
          std::vector<ComplexGrid> accum(kBackends,
                                         ComplexGrid(n, n, {0.0, 0.0}));
          BackendRow rows[kBackends];
          // The backends alternate inside every repetition, so each
          // repetition's scalar/SIMD ratio is taken under one machine
          // load; the speedup is the median of those paired ratios.
          std::vector<double> ratios;
          for (int r = 0; r < reps; ++r) {
            double total[kBackends] = {};
            for (int b = 0; b < kBackends; ++b) {
              const exec::Backend* backend = backends[b];
              const double aerialMs = 1000.0 * timeBatch(1, 1, 1, [&](int) {
                intensity[b].fill(0.0);
                backend->accumulateCoherentIntensity(
                    fft, spectrum, kern.views.data(), kern.weights.data(),
                    kKernels, 1.05, intensity[b]);
              });
              const double gradMs = 1000.0 * timeBatch(1, 1, 1, [&](int) {
                accum[b].fill({0.0, 0.0});
                backend->accumulateGradientChains(
                    fft, spectrum, kern.views.data(), kern.weights.data(),
                    kKernels, gField, accum[b]);
              });
              BackendRow& row = rows[b];
              row.aerialMs = r == 0 ? aerialMs : std::min(row.aerialMs,
                                                          aerialMs);
              row.gradMs = r == 0 ? gradMs : std::min(row.gradMs, gradMs);
              total[b] = aerialMs + gradMs;
            }
            ratios.push_back(total[0] / total[1]);
          }
          std::sort(ratios.begin(), ratios.end());
          const std::size_t mid = ratios.size() / 2;
          const double speedup =
              ratios.size() % 2 == 1
                  ? ratios[mid]
                  : 0.5 * (ratios[mid - 1] + ratios[mid]);
          // Equivalence vs the scalar reference, relative to the result
          // magnitude.
          double intensityScale = 1.0;
          double accumScale = 1.0;
          for (const double v : intensity[0]) {
            intensityScale = std::max(intensityScale, std::abs(v));
          }
          for (const auto& v : accum[0]) {
            accumScale = std::max(accumScale, std::abs(v));
          }
          const double aerialRel =
              maxAbsDiff(intensity[1], intensity[0]) / intensityScale;
          const double gradRel = maxAbsDiff(accum[1], accum[0]) / accumScale;
          if (aerialRel > 1e-9 || gradRel > 1e-9) {
            backendEquivOk = false;
            std::fprintf(stderr,
                         "bm_fft: %s diverges from cpu_scalar at %d^2 "
                         "(aerial rel %.2e, grad rel %.2e)\n",
                         backends[1]->name(), n, aerialRel, gradRel);
          }
          if (n == gateSize) gateSimdSpeedup = speedup;
          for (int b = 0; b < kBackends; ++b) {
            BackendRow& row = rows[b];
            row.backend = backends[b]->name();
            row.size = n;
            row.speedup = b == 0 ? 1.0 : speedup;
            backendRows.push_back(row);
            std::printf("backend %-12s size %4d  aerial %8.2f ms  grad "
                        "%8.2f ms  (%.2fx vs scalar)\n",
                        row.backend, n, row.aerialMs, row.gradMs,
                        row.speedup);
            std::fflush(stdout);
          }
        }
      }
    }

    TextTable table;
    table.setHeader(
        {"size", "threads", "complex ms", "real ms", "real speedup"});
    for (const Row& row : rows) {
      table.addRow({std::to_string(row.size), std::to_string(row.threads),
                    TextTable::num(row.complexMs, 2),
                    TextTable::num(row.realMs, 2),
                    TextTable::num(row.complexMs / row.realMs, 2)});
    }
    if (!rows.empty()) {
      std::printf("\n== bm_fft: forward+inverse pair per thread, best of %d "
                  "reps ==\n%s",
                  reps, table.render().c_str());
    }

    if (!backendRows.empty()) {
      TextTable btable;
      btable.setHeader(
          {"backend", "size", "aerial ms", "grad ms", "vs scalar"});
      for (const BackendRow& row : backendRows) {
        btable.addRow({row.backend, std::to_string(row.size),
                       TextTable::num(row.aerialMs, 2),
                       TextTable::num(row.gradMs, 2),
                       TextTable::num(row.speedup, 2)});
      }
      std::printf("\n== bm_fft: batched SOCS aerial + gradient (24 kernels) "
                  "per backend ==\n%s",
                  btable.render().c_str());
    }

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json, "{\n  \"bench\": \"bm_fft\",\n  \"machine\": %s,\n"
                       "  \"reps\": %d,\n"
                       "  \"pair\": \"forward+inverse per thread\",\n"
                       "  \"rows\": [\n",
                 bench::machineStampJson().c_str(), reps);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(json,
                   "    {\"size\": %d, \"threads\": %d, "
                   "\"complex_ms\": %.3f, \"real_ms\": %.3f, "
                   "\"real_speedup\": %.3f}%s\n",
                   row.size, row.threads, row.complexMs, row.realMs,
                   row.complexMs / row.realMs,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"backends\": [\n");
    for (std::size_t i = 0; i < backendRows.size(); ++i) {
      const BackendRow& row = backendRows[i];
      std::fprintf(json,
                   "    {\"backend\": \"%s\", \"size\": %d, "
                   "\"aerial_ms\": %.3f, \"grad_ms\": %.3f, "
                   "\"speedup_vs_scalar\": %.3f}%s\n",
                   row.backend, row.size, row.aerialMs, row.gradMs,
                   row.speedup, i + 1 < backendRows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());

    if (minSpeedup >= 0.0) {
      MOSAIC_CHECK(gateRealMs > 0.0,
                   "gate size " << gateSize << " was not measured");
      const double speedup = gateComplexMs / gateRealMs;
      if (speedup < minSpeedup) {
        std::fprintf(stderr,
                     "bm_fft: real-path speedup %.2fx at %d^2 is below "
                     "the %.2fx gate\n",
                     speedup, gateSize, minSpeedup);
        return 1;
      }
      std::printf("gate: %.2fx >= %.2fx at %d^2, ok\n", speedup, minSpeedup,
                  gateSize);
    }

    if (simdGate >= 0.0 && !simdSkipped) {
      if (!backendEquivOk) {
        std::fprintf(stderr,
                     "bm_fft: backend equivalence check failed (above)\n");
        return 1;
      }
      MOSAIC_CHECK(gateSimdSpeedup > 0.0,
                   "cpu_simd at gate size " << gateSize
                                            << " was not measured");
      if (gateSimdSpeedup < simdGate) {
        std::fprintf(stderr,
                     "bm_fft: cpu_simd speedup %.2fx at %d^2 is below the "
                     "%.2fx gate\n",
                     gateSimdSpeedup, gateSize, simdGate);
        return 1;
      }
      std::printf("simd gate: %.2fx >= %.2fx at %d^2, equivalence ok\n",
                  gateSimdSpeedup, simdGate, gateSize);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_fft: %s\n", e.what());
    return 1;
  }
  return 0;
}
