/// \file bm_serve.cpp
/// Throughput/latency measurement of the mosaic_serve job service
/// (docs/serving.md): drives an in-process JobService with a stream of
/// small OPC jobs at 1, 2 and 4 workers, cold (every job rebuilds its
/// SOCS kernels) vs warm (the shared simulator pool — the serve value
/// proposition), and reports jobs/sec plus p50/p95/p99 sojourn latency.
/// Emits BENCH_serve.json; with --min-warm-speedup X it exits nonzero
/// when warm throughput fails to beat cold by that factor at any worker
/// count (enforced at 1.5x by the serve_throughput ctest).

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "machine_stamp.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace mosaic;

struct RunStats {
  int workers = 0;
  bool warm = false;
  int jobs = 0;
  double jobsPerSec = 0.0;
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  double p99Ms = 0.0;
};

double percentile(std::vector<double> sortedMs, double p) {
  if (sortedMs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sortedMs.size() - 1) + 0.5);
  return sortedMs[std::min(rank, sortedMs.size() - 1)];
}

serve::JobSpec benchSpec(int index, int pixel, int iters) {
  serve::JobSpec spec;
  spec.caseName = "random:" + std::to_string(9000 + index);
  spec.method = "baseline";
  spec.pixelNm = pixel;
  spec.iterations = iters;
  spec.checkpointEvery = 0x7fffffff;  // measuring serve, not checkpoint I/O
  return spec;
}

RunStats runConfig(int workers, bool warm, int jobs, int pixel, int iters) {
  const std::filesystem::path workDir =
      std::filesystem::temp_directory_path() /
      ("bm_serve_" + std::to_string(workers) + (warm ? "_warm" : "_cold"));
  std::filesystem::remove_all(workDir);

  serve::ServeConfig cfg;
  cfg.workDir = workDir.string();
  cfg.workers = workers;
  cfg.queueCapacity = jobs + 2;
  cfg.reuseSimulators = warm;
  serve::JobService service(cfg);

  if (warm) {
    // Build the shared simulator pool outside the timed window: the warm
    // numbers describe the steady state of a long-lived daemon.
    const serve::SubmitResult warmup =
        service.submit(benchSpec(-1, pixel, 1));
    MOSAIC_CHECK(warmup.status == serve::SubmitStatus::kAccepted,
                 "warmup submit rejected: " << warmup.message);
    serve::JobSnapshot snap;
    while (service.snapshot(warmup.id, &snap) &&
           (snap.state == serve::JobState::kQueued ||
            snap.state == serve::JobState::kRunning)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    MOSAIC_CHECK(snap.state == serve::JobState::kDone,
                 "warmup job did not finish");
  }

  WallTimer clock;
  std::vector<std::string> ids;
  std::vector<double> submitAt;
  std::vector<double> latencyMs(static_cast<std::size_t>(jobs), -1.0);
  ids.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    const serve::SubmitResult res = service.submit(benchSpec(i, pixel, iters));
    MOSAIC_CHECK(res.status == serve::SubmitStatus::kAccepted,
                 "submit " << i << " rejected: " << res.message);
    ids.push_back(res.id);
    submitAt.push_back(clock.seconds());
  }

  double lastDone = 0.0;
  int remaining = jobs;
  while (remaining > 0) {
    MOSAIC_CHECK(clock.seconds() < 600.0, "bm_serve stuck: " << remaining
                                                             << " jobs left");
    for (int i = 0; i < jobs; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (latencyMs[idx] >= 0.0) continue;
      serve::JobSnapshot snap;
      MOSAIC_CHECK(service.snapshot(ids[idx], &snap),
                   "job vanished: " << ids[idx]);
      if (snap.state == serve::JobState::kQueued ||
          snap.state == serve::JobState::kRunning) {
        continue;
      }
      MOSAIC_CHECK(snap.state == serve::JobState::kDone,
                   "job " << ids[idx] << " ended "
                          << serve::jobStateName(snap.state) << ": "
                          << snap.error);
      lastDone = clock.seconds();
      latencyMs[idx] = (lastDone - submitAt[idx]) * 1e3;
      --remaining;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.drain(serve::DrainMode::kFinish);
  std::filesystem::remove_all(workDir);

  std::sort(latencyMs.begin(), latencyMs.end());
  RunStats stats;
  stats.workers = workers;
  stats.warm = warm;
  stats.jobs = jobs;
  stats.jobsPerSec = static_cast<double>(jobs) / std::max(lastDone, 1e-9);
  stats.p50Ms = percentile(latencyMs, 0.50);
  stats.p95Ms = percentile(latencyMs, 0.95);
  stats.p99Ms = percentile(latencyMs, 0.99);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mosaic;
  int pixel = 16;
  int iters = 8;
  int warmJobs = 16;
  int coldJobs = 4;
  double minWarmSpeedup = -1.0;
  std::string jsonPath = "BENCH_serve.json";
  std::string logLevel = "warn";

  CliParser cli("bm_serve",
                "jobs/sec and latency of the serve worker pool, cold vs warm");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addInt("iters", &iters, "optimizer iterations per job");
  cli.addInt("jobs", &warmJobs, "jobs per warm measurement");
  cli.addInt("cold-jobs", &coldJobs,
             "jobs per cold measurement (each pays a full kernel build)");
  cli.addDouble("min-warm-speedup", &minWarmSpeedup,
                "fail unless warm/cold jobs-per-sec >= this at every worker "
                "count (<0 = report only)");
  cli.addString("json", &jsonPath, "output JSON path");
  cli.addString("log", &logLevel, "log level");
  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));
    MOSAIC_CHECK(warmJobs > 0 && coldJobs > 0, "job counts must be positive");

    std::vector<RunStats> runs;
    for (int workers : {1, 2, 4}) {
      runs.push_back(runConfig(workers, false, coldJobs, pixel, iters));
      runs.push_back(runConfig(workers, true, warmJobs, pixel, iters));
    }

    std::printf("== bm_serve: %d-nm pixel, %d iterations/job ==\n", pixel,
                iters);
    TextTable table;
    table.setHeader({"workers", "mode", "jobs", "jobs/s", "p50 ms", "p95 ms",
                     "p99 ms"});
    for (const RunStats& r : runs) {
      table.addRow({TextTable::integer(r.workers), r.warm ? "warm" : "cold",
                    TextTable::integer(r.jobs), TextTable::num(r.jobsPerSec, 2),
                    TextTable::num(r.p50Ms, 1), TextTable::num(r.p95Ms, 1),
                    TextTable::num(r.p99Ms, 1)});
    }
    std::printf("%s", table.render().c_str());

    double worstSpeedup = 0.0;
    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_serve\",\n  \"machine\": %s,\n"
                 "  \"pixel_nm\": %d,\n"
                 "  \"iterations\": %d,\n  \"configs\": [",
                 bench::machineStampJson().c_str(), pixel, iters);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunStats& r = runs[i];
      std::fprintf(json,
                   "%s\n    {\"workers\": %d, \"mode\": \"%s\", "
                   "\"jobs\": %d, \"jobs_per_sec\": %.3f, \"p50_ms\": %.2f, "
                   "\"p95_ms\": %.2f, \"p99_ms\": %.2f}",
                   i == 0 ? "" : ",", r.workers, r.warm ? "warm" : "cold",
                   r.jobs, r.jobsPerSec, r.p50Ms, r.p95Ms, r.p99Ms);
    }
    std::fprintf(json, "\n  ],\n  \"warm_speedup\": {");
    bool first = true;
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
      const double speedup = runs[i + 1].jobsPerSec /
                             std::max(runs[i].jobsPerSec, 1e-9);
      if (first || speedup < worstSpeedup) worstSpeedup = speedup;
      first = false;
      std::fprintf(json, "%s\"%dw\": %.2f", i == 0 ? "" : ", ",
                   runs[i].workers, speedup);
      std::printf("warm speedup at %d worker(s): %.1fx\n", runs[i].workers,
                  speedup);
    }
    std::fprintf(json, "}\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());

    if (minWarmSpeedup >= 0.0 && worstSpeedup < minWarmSpeedup) {
      std::fprintf(stderr,
                   "bm_serve: warm speedup %.2fx is below the required "
                   "%.2fx\n",
                   worstSpeedup, minWarmSpeedup);
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
