/// mosaic_bench — the end-to-end benchmark program for MOSAIC.
///
///   mosaic_bench --workload clip_suite|chip_mixed|serve_open --seed N
///                --seconds S --trace 0|1 --work-dir DIR [--spans-out F]
///
/// Builds the workload's inputs from the seed, runs it through the
/// library's public API, checks the outputs, and prints a report followed
/// by one JSON line (metrics, stamp, check results). run.py wraps this
/// binary into the benchmark command named in BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "math/backend.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mosaic_bench: %s\nusage: mosaic_bench --workload "
               "clip_suite|chip_mixed|serve_open --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans-out FILE]\n",
               why);
  std::exit(2);
}

mosaicbench::Options parseArgs(int argc, char** argv) {
  mosaicbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.workDir = value;
    } else if (key == "--spans-out") {
      opt.spansOut = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.workDir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mosaicbench;
  const Options opt = parseArgs(argc, argv);
  mosaic::setLogLevel(mosaic::LogLevel::kWarn);
  // The apps' default backend: what users actually run.
  const mosaic::exec::Backend* backend = mosaic::exec::findBackend("auto");
  if (backend == nullptr) usage("no 'auto' execution backend");
  mosaic::exec::setCurrentBackend(*backend);

  std::filesystem::remove_all(opt.workDir);
  std::filesystem::create_directories(opt.workDir);

  Tracer tracer(opt.trace);
  Result result;
  try {
    if (opt.workload == "clip_suite") {
      result = runClipSuite(opt, tracer);
    } else if (opt.workload == "chip_mixed") {
      result = runChipMixed(opt, tracer);
    } else if (opt.workload == "serve_open") {
      result = runServeOpen(opt, tracer);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mosaic_bench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  mosaic::shutdownParallelPool();

  // Workloads that run checks of their own after the measured part record
  // the peak before them.
  if (result.e2e.count("peak_rss_mb") == 0) {
    result.setE2e("peak_rss_mb", peakRssMb(), "MB");
  }
  result.stamp["workload"] = opt.workload;
  result.stamp["seed"] = std::to_string(opt.seed);
  result.stamp["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  result.stamp["avx2"] = mosaic::exec::cpuHasAvx2() ? "yes" : "no";
  result.stamp["backend"] = mosaic::exec::currentBackend().name();
  result.stamp["build_type"] = MOSAICBENCH_BUILD_TYPE;
  result.stamp["trace"] = opt.trace ? "1" : "0";

  if (opt.trace) {
    reportTrace(tracer, result);
    if (!opt.spansOut.empty()) {
      tracer.write(opt.spansOut);
      result.line("spans written to " + opt.spansOut);
    }
  }
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(opt.workDir);
  return 0;
}
