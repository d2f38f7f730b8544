/// clip_suite — the `mosaic_cli run` / Table 2 path on one worker.
///
/// A fresh simulator at 4 nm pixels (256^2 grid, no kernel cache) runs
/// B1-B10 plus seeded random clips under MOSAIC_fast and MOSAIC_exact,
/// each followed by evaluateMask. Kernel setup, the SOCS aerial sum, the
/// resist epilogue, the gradient chain and evaluation do the work; the
/// executor, tiling, cache and serve layers do none.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "common.hpp"
#include "eval/evaluator.hpp"
#include "eval/pvband.hpp"
#include "geometry/raster.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "opc/sraf.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"

namespace mosaicbench {
namespace {

using namespace mosaic;

constexpr int kPixelNm = 4;
constexpr int kRandomClips = 4;
constexpr int kSetups = 3;
/// One pass over the suite takes about this long on one worker of the
/// reference machine (4 hardware threads, AVX2); a run makes seconds /
/// this many whole passes, so every run of a given length times the same
/// clip mix.
constexpr double kPassSecondsEstimate = 17.5;

struct ClipCase {
  std::string name;
  BitGrid target;
  OpcMethod method;
  std::size_t row;  ///< Table 2 row: one layout under both methods
};

/// Every focus the optimizer and the evaluator touch.
std::vector<double> kernelFoci() {
  std::set<double> foci{nominalCorner().focusNm};
  for (const ProcessCorner& c : optimizationCorners()) foci.insert(c.focusNm);
  for (const ProcessCorner& c : evaluationCorners()) foci.insert(c.focusNm);
  return {foci.begin(), foci.end()};
}

}  // namespace

Result runClipSuite(const Options& opt, Tracer& tracer) {
  setParallelism(1);
  Result result;
  result.stamp["workers"] = "1";

  // ---- inputs: the built-in suite plus seeded random clips ----
  std::vector<Layout> layouts = buildAllTestcases();
  for (int k = 0; k < kRandomClips; ++k) {
    layouts.push_back(buildRandomClip(mixSeed(opt.seed, 100 + k)));
  }
  InputHash hash;
  std::vector<ClipCase> cases;
  for (const Layout& layout : layouts) {
    hash.addLayout(layout);
    const BitGrid target = rasterize(layout, kPixelNm);
    const std::size_t row = cases.size() / 2;
    cases.push_back(
        {layout.name + "/fast", target, OpcMethod::kMosaicFast, row});
    cases.push_back(
        {layout.name + "/exact", target, OpcMethod::kMosaicExact, row});
  }
  result.stamp["input_hash"] = hash.hex();

  // ---- setup: fresh simulator until every focus has its kernel set ----
  OpticsConfig optics;
  optics.pixelNm = kPixelNm;
  const std::vector<double> foci = kernelFoci();
  std::vector<double> setupS;
  std::map<double, std::vector<double>> kernelS;
  std::unique_ptr<LithoSimulator> sim;
  const Telemetry beforeSetup = Telemetry::read();
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = nowMs();
    auto fresh = std::make_unique<LithoSimulator>(optics);
    for (const double focus : foci) {
      auto span = tracer.span("litho", "kernels", format("setup%d/f%g", i, focus));
      const double k0 = nowMs();
      (void)fresh->kernels(focus);
      kernelS[focus].push_back((nowMs() - k0) / 1000.0);
    }
    setupS.push_back((nowMs() - t0) / 1000.0);
    sim = std::move(fresh);
  }
  const Telemetry setupDelta = Telemetry::read().minus(beforeSetup);

  // ---- measured passes over the whole suite ----
  std::vector<double> clipMs;
  std::map<OpcMethod, std::vector<double>> methodMs;
  std::vector<double> rowMeanMs;  ///< per layout and pass: mean of 2 runs
  std::vector<double> iterationMs;
  std::map<OpcMethod, double> scoreSum;
  double epeSum = 0.0;
  double pvbandSum = 0.0;
  long long iterations = 0;
  Telemetry optimizeDelta;
  double measuredMs = 0.0;
  int passes = 0;
  const int passesToRun = std::max(
      1, static_cast<int>(std::lround(opt.seconds / kPassSecondsEstimate)));
  while (passes < passesToRun) {
    std::vector<double> rowSumMs(cases.size() / 2, 0.0);
    for (const ClipCase& clip : cases) {
      ++result.attempted;
      OpcResult res;
      CaseEvaluation ev;
      const double start = nowMs();
      {
        auto clipSpan = tracer.span("bench", "clip", clip.name);
        OptimizeOptions options;
        {
          auto span = tracer.span("opc", "insert_sraf", clip.name);
          options.warmStartMask = toReal(insertSraf(clip.target, kPixelNm));
        }
        std::uint64_t runSpan = 0;
        const auto onIteration = [&](const IterationRecord& rec,
                                     const RealGrid&) {
          iterationMs.push_back(rec.wallMs);
          if (tracer.enabled()) {
            const double now = nowMs();
            tracer.add("opc", "iteration", clip.name, now - rec.wallMs, now,
                       runSpan);
          }
        };
        const Telemetry before = Telemetry::read();
        {
          auto span = tracer.span("opc", "run_opc", clip.name);
          runSpan = span.id();
          // Same initial mask runOpc builds itself (target + rule SRAFs),
          // made explicit so the SRAF step gets its own span.
          res = runOpc(*sim, clip.target, clip.method, nullptr, {},
                       onIteration, options);
        }
        optimizeDelta.accumulate(Telemetry::read().minus(before));
        {
          auto span = tracer.span("eval", "evaluate_mask", clip.name);
          ev = evaluateMask(*sim, res.maskTwoLevel, clip.target,
                            res.runtimeSec);
        }
      }
      const double elapsed = nowMs() - start;
      measuredMs += elapsed;
      clipMs.push_back(elapsed);
      methodMs[clip.method].push_back(elapsed);
      rowSumMs[clip.row] += elapsed;
      iterations += res.iterations;

      bool finite = !res.history.empty();
      for (const IterationRecord& rec : res.history) {
        finite = finite && std::isfinite(rec.objective);
      }
      const bool stopOk = res.stopReason == StopReason::kConverged ||
                          res.stopReason == StopReason::kMaxIterations;
      const bool ok = finite && stopOk && std::isfinite(ev.score);
      if (!ok) {
        ++result.failed;
        result.check(false, format("%s: objective %s, stop reason %s",
                                   clip.name.c_str(),
                                   finite ? "finite" : "NOT finite",
                                   stopReasonName(res.stopReason).c_str()));
      }
      if (passes == 0) {
        epeSum += ev.epeViolations;
        pvbandSum += ev.pvbandAreaNm2;
        scoreSum[clip.method] += ev.score;
      }

      if (tracer.enabled()) {
        // Probes: one direct call into each layer on this clip's result,
        // outside the timed region.
        auto probe = tracer.span("bench", "probe", clip.name);
        ComplexGrid spectrum;
        {
          auto span = tracer.span("litho", "mask_spectrum", clip.name);
          spectrum = sim->maskSpectrum(res.maskTwoLevel);
        }
        {
          auto span = tracer.span("litho", "aerial", clip.name);
          (void)sim->aerialFromSpectrum(spectrum, nominalCorner());
        }
        {
          const IltObjective objective(
              *sim, clip.target, defaultIltConfig(clip.method, kPixelNm));
          auto span = tracer.span("opc", "evaluate", clip.name);
          (void)objective.evaluate(res.maskContinuous, true);
        }
        {
          auto span = tracer.span("eval", "pvband", clip.name);
          (void)computePvBand(*sim, spectrum, evaluationCorners());
        }
      }
    }
    for (const double sum : rowSumMs) rowMeanMs.push_back(sum / 2.0);
    ++passes;
  }

  const double clips = static_cast<double>(clipMs.size());
  result.check(result.failed == 0,
               format("%zu clip runs returned a finite objective and a "
                      "non-aborted stop reason",
                      clipMs.size() - static_cast<std::size_t>(result.failed)));
  const double exactScore = scoreSum[OpcMethod::kMosaicExact];
  const double fastScore = scoreSum[OpcMethod::kMosaicFast];
  result.line(format("info (not gated): summed contest score MOSAIC_exact "
                     "%.6g vs MOSAIC_fast %.6g -> exact %s fast",
                     exactScore, fastScore,
                     exactScore < fastScore ? "below" : "NOT below"));

  // ---- end-to-end metrics ----
  // MOSAIC_fast and MOSAIC_exact runs form two clusters ~10% apart, and
  // the suite has as many of each, so the median of single runs falls in
  // the gap between them and jumps with the seed. The p50 is
  // therefore taken over layouts (each one's mean run); the tail, which
  // lies inside the upper cluster, over single runs.
  const Tail tail = tailOf(clipMs);
  result.setE2e("setup_s", median(setupS), "s");
  result.setE2e("throughput_per_s", clips / (measuredMs / 1000.0), "1/s");
  result.setE2e("latency_p50_ms", median(rowMeanMs), "ms");
  result.setE2e("latency_tail_ms", tail.value, "ms");
  result.line(format("setup_s: %.4f s (median of %d fresh simulators, %zu "
                     "foci each)",
                     median(setupS), kSetups, foci.size()));
  result.line(format("clips_per_s: %.4f 1/s (%d pass(es) x %zu clip runs in "
                     "%.2f s)",
                     clips / (measuredMs / 1000.0), passes, cases.size(),
                     measuredMs / 1000.0));
  result.line(describeLatency("clip_s", clipMs, "s", 1e-3));
  result.line(format("clip_p50_s over layouts (mean of a layout's fast and "
                     "exact run): %.4g s (n=%zu); per method: fast %.4g s, "
                     "exact %.4g s",
                     median(rowMeanMs) / 1000.0, rowMeanMs.size(),
                     median(methodMs[OpcMethod::kMosaicFast]) / 1000.0,
                     median(methodMs[OpcMethod::kMosaicExact]) / 1000.0));
  result.line(format("epe_violations: %.0f count (summed over %zu clip runs)",
                     epeSum, cases.size()));
  result.line(format("pvband_nm2: %.6g nm2 (summed over %zu clip runs)",
                     pvbandSum, cases.size()));
  result.line(format("failed_frac: %.4g ratio (%lld of %lld clip runs)",
                     static_cast<double>(result.failed) / clips,
                     result.failed, result.attempted));

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
                      optimizeDelta.count("litho.kernels.compute")),
                  "count");
  const double evals =
      static_cast<double>(optimizeDelta.count("objective.evaluate"));
  if (evals > 0) {
    result.setLayer("litho.aerial_sums_per_eval",
                    optimizeDelta.count("litho.aerial") / evals, "count");
    result.setLayer("litho.mask_spectra_per_eval",
                    optimizeDelta.counter("litho.mask_spectrum") / evals,
                    "count");
  }
  result.setLayer("opc.iterations", static_cast<double>(iterations), "count");
  result.setLayer("opc.iteration_ms", median(iterationMs), "ms");
  result.line(format("in-run (program histograms): %.0f objective "
                     "evaluations, %.1f ms mean; %llu aerial sums, %.2f ms "
                     "mean",
                     evals,
                     evals > 0 ? optimizeDelta.sumMs("objective.evaluate") /
                                     evals
                               : 0.0,
                     static_cast<unsigned long long>(
                         optimizeDelta.count("litho.aerial")),
                     optimizeDelta.count("litho.aerial")
                         ? optimizeDelta.sumMs("litho.aerial") /
                               optimizeDelta.count("litho.aerial")
                         : 0.0));
  if (tracer.enabled()) {
    const auto names = tracer.byName();
    const auto mean = [&](const std::string& key) {
      const auto it = names.find(key);
      return it == names.end() ? 0.0 : it->second.meanMs();
    };
    result.setLayer("litho.aerial_ms", mean("litho.aerial"), "ms");
    result.setLayer("opc.evaluate_ms", mean("opc.evaluate"), "ms");
    result.setLayer("opc.sraf_ms", mean("opc.insert_sraf"), "ms");
    result.setLayer("eval.evaluate_ms", mean("eval.evaluate_mask"), "ms");
    result.setLayer("eval.pvband_ms", mean("eval.pvband"), "ms");
  }
  return result;
}

}  // namespace mosaicbench
