/// \file bm_telemetry.cpp
/// Telemetry overhead measurement (docs/observability.md): times a fixed
/// FFT workload four ways -- uninstrumented, spans with tracing disabled
/// (histograms only; the always-on production state), spans with tracing
/// enabled, and spans plus a per-op progress publish to a watcher-less
/// ProgressBus (the serve streaming path when nobody is watching) -- plus
/// the raw cost of an empty span and the Prometheus /metrics encode cost.
/// Reports the relative overheads (the median over repetitions of each
/// variant's time paired with the same repetition's uninstrumented time),
/// emits BENCH_telemetry.json, and with --max-overhead-pct N exits nonzero
/// when either the disabled-mode or the idle-sink overhead exceeds N
/// percent (the guarantee the docs advertise; enforced by the
/// telemetry_overhead ctest at 3 %).
///
/// The workload uses the 1-D FftPlan directly: unlike Fft2d::forward it
/// carries no MOSAIC_SPAN itself, so the uninstrumented variant is a true
/// zero-telemetry baseline within one binary.

#include <algorithm>
#include <complex>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "machine_stamp.hpp"
#include "math/fft.hpp"
#include "serve/progress.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/prometheus.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace mosaic;
  int fftSize = 4096;
  int iters = 300;
  int reps = 11;
  double maxOverheadPct = -1.0;
  std::string jsonPath = "BENCH_telemetry.json";

  CliParser cli("bm_telemetry",
                "overhead of MOSAIC_SPAN instrumentation on an FFT workload");
  cli.addInt("fft-size", &fftSize, "1-D FFT length per instrumented call");
  cli.addInt("iters", &iters,
             "FFT round-trips per variant per timed repetition");
  cli.addInt("reps", &reps,
             "repetitions, each interleaving all variants (the median "
             "paired ratio is reported)");
  cli.addDouble("max-overhead-pct", &maxOverheadPct,
                "fail when disabled-mode overhead exceeds this (<0 = off)");
  cli.addString("json", &jsonPath, "output JSON path");
  try {
    if (!cli.parse(argc, argv)) return 0;
    MOSAIC_CHECK(iters > 0 && reps > 0, "iters and reps must be positive");

    const FftPlan plan(static_cast<std::size_t>(fftSize));
    std::vector<std::complex<double>> data(
        static_cast<std::size_t>(fftSize));
    for (int i = 0; i < fftSize; ++i) {
      data[static_cast<std::size_t>(i)] = {1.0 + (i % 7), 0.5 * (i % 3)};
    }
    // forward + inverse leaves the data unchanged up to rounding, so every
    // iteration transforms the same magnitudes (no drift to inf).
    auto op = [&] {
      plan.forward(data.data());
      plan.inverse(data.data());
    };

    // Streaming progress with no watcher attached: every op also builds
    // and publishes one event to a subscriber-less ProgressBus topic, the
    // state a serving daemon is in whenever a job runs unwatched. This is
    // the per-iteration cost OptimizeOptions::progressSink adds.
    serve::ProgressBus bus;
    int sinkIteration = 0;

    enum Variant { kBase, kDisabled, kEnabled, kSink, kVariants };
    const auto runVariant = [&](int v, int count) {
      telemetry::setTraceEnabled(v == kEnabled);
      WallTimer timer;
      for (int i = 0; i < count; ++i) {
        if (v == kBase) {
          op();
          continue;
        }
        MOSAIC_SPAN("bm.fft_roundtrip");
        op();
        if (v == kSink) {
          serve::ProgressEvent event;
          event.job = "bm-job";
          event.seq = bus.nextSeq(event.job);
          event.iteration = ++sinkIteration;
          event.objective = 1.0;
          event.fTarget = 0.5;
          event.fPvb = 0.5;
          event.gradRms = 0.1;
          event.wallMs = 1.0;
          bus.publish(event);
        }
      }
      const double seconds = timer.seconds();
      telemetry::setTraceEnabled(false);
      telemetry::clearTrace();
      return seconds;
    };

    // Each repetition runs `iters` ops of every variant, interleaved in
    // blocks of kBlock ops (about a millisecond) in an order rotated per
    // block, and scores each instrumented variant by its time relative to
    // the uninstrumented time of the *same* repetition. Load or clock
    // drift then hits every variant alike and cancels out of the ratio;
    // the median over repetitions rejects the odd preempted repetition.
    constexpr int kBlock = 10;
    op();  // touch everything once before timing
    std::vector<double> times[kVariants];
    std::vector<double> ratios[kVariants];
    for (int r = 0; r < reps; ++r) {
      double t[kVariants] = {};
      for (int done = 0, b = 0; done < iters; done += kBlock, ++b) {
        const int count = std::min(kBlock, iters - done);
        for (int k = 0; k < kVariants; ++k) {
          const int v = (b + k) % kVariants;
          t[v] += runVariant(v, count);
        }
      }
      for (int v = 0; v < kVariants; ++v) {
        times[v].push_back(t[v]);
        ratios[v].push_back(t[v] / t[kBase]);
      }
    }
    const auto median = [](std::vector<double> xs) {
      std::sort(xs.begin(), xs.end());
      const std::size_t m = xs.size() / 2;
      return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
    };
    const double tBase = median(times[kBase]);
    const double tDisabled = median(times[kDisabled]);
    const double tEnabled = median(times[kEnabled]);
    const double tSink = median(times[kSink]);

    // Raw per-span cost, histogram-only mode (the hot production path).
    constexpr int kEmptySpans = 1000000;
    WallTimer emptyTimer;
    for (int i = 0; i < kEmptySpans; ++i) {
      MOSAIC_SPAN("bm.empty");
    }
    const double nsPerSpan = emptyTimer.seconds() * 1e9 / kEmptySpans;

    // Prometheus /metrics encode cost: render a snapshot shaped like a
    // busy daemon's registry (every scrape pays this on the endpoint
    // thread, never on a worker).
    {
      auto& reg = telemetry::metrics();
      for (int i = 0; i < 16; ++i) {
        reg.counter("bm.counter_" + std::to_string(i)).add(1000 + i);
        reg.gauge("bm.gauge_" + std::to_string(i)).set(i * 1.5);
      }
      for (int i = 0; i < 8; ++i) {
        auto& h = reg.histogram("bm.hist_" + std::to_string(i));
        for (int j = 0; j < 4096; ++j) h.record((j * 37) % 100000);
      }
    }
    const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
    constexpr int kEncodes = 2000;
    std::size_t promBytes = 0;
    WallTimer encodeTimer;
    for (int i = 0; i < kEncodes; ++i) {
      promBytes = telemetry::toPrometheusText(snap).size();
    }
    const double usPerEncode = encodeTimer.seconds() * 1e6 / kEncodes;

    const double usPerOp = tBase * 1e6 / iters;
    auto overheadPct = [&](int v) {
      return std::max(0.0, (median(ratios[v]) - 1.0) * 100.0);
    };
    const double disabledPct = overheadPct(kDisabled);
    const double enabledPct = overheadPct(kEnabled);
    const double sinkPct = overheadPct(kSink);

    std::printf("== bm_telemetry: %d-pt FFT round-trip (%.1f us/op), "
                "%d iters x %d interleaved reps, medians ==\n",
                fftSize, usPerOp, iters, reps);
    TextTable table;
    table.setHeader({"variant", "time (s)", "overhead"});
    table.addRow({"uninstrumented", TextTable::num(tBase, 4), "-"});
    table.addRow({"spans, tracing off", TextTable::num(tDisabled, 4),
                  TextTable::num(disabledPct, 2) + " %"});
    table.addRow({"spans, tracing on", TextTable::num(tEnabled, 4),
                  TextTable::num(enabledPct, 2) + " %"});
    table.addRow({"spans + idle progress sink", TextTable::num(tSink, 4),
                  TextTable::num(sinkPct, 2) + " %"});
    std::printf("%s", table.render().c_str());
    std::printf("empty span: %.0f ns (histogram record, tracing off)\n",
                nsPerSpan);
    std::printf("prometheus encode: %.1f us for %zu bytes "
                "(%zu counters, %zu gauges, %zu histograms)\n",
                usPerEncode, promBytes, snap.counters.size(),
                snap.gauges.size(), snap.histograms.size());

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_telemetry\",\n"
                 "  \"machine\": %s,\n"
                 "  \"fft_size\": %d,\n  \"iters\": %d,\n  \"reps\": %d,\n"
                 "  \"us_per_op\": %.3f,\n"
                 "  \"baseline_s\": %.6f,\n"
                 "  \"disabled_s\": %.6f,\n"
                 "  \"enabled_s\": %.6f,\n"
                 "  \"idle_sink_s\": %.6f,\n"
                 "  \"disabled_overhead_pct\": %.4f,\n"
                 "  \"enabled_overhead_pct\": %.4f,\n"
                 "  \"idle_sink_overhead_pct\": %.4f,\n"
                 "  \"empty_span_ns\": %.1f,\n"
                 "  \"prometheus_encode_us\": %.2f,\n"
                 "  \"prometheus_bytes\": %zu\n}\n",
                 bench::machineStampJson().c_str(), fftSize, iters, reps,
                 usPerOp, tBase, tDisabled, tEnabled,
                 tSink, disabledPct, enabledPct, sinkPct, nsPerSpan,
                 usPerEncode, promBytes);
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());

    if (maxOverheadPct >= 0.0 && disabledPct > maxOverheadPct) {
      std::fprintf(stderr,
                   "bm_telemetry: disabled-mode overhead %.2f %% exceeds "
                   "the %.2f %% budget\n",
                   disabledPct, maxOverheadPct);
      return 1;
    }
    if (maxOverheadPct >= 0.0 && sinkPct > maxOverheadPct) {
      std::fprintf(stderr,
                   "bm_telemetry: idle-progress-sink overhead %.2f %% "
                   "exceeds the %.2f %% budget\n",
                   sinkPct, maxOverheadPct);
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_telemetry: %s\n", e.what());
    return 1;
  }
  return 0;
}
