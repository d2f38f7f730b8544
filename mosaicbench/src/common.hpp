#pragma once
/// \file common.hpp
/// Shared pieces of the end-to-end benchmark program: options, statistics,
/// seeded input hashing, the in-memory span tracer, reads of the program's
/// exported telemetry, and the result document each workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "geometry/layout.hpp"

namespace mosaicbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds on the steady clock since the program started.
double nowMs();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workDir;   ///< scratch directory inside the checkout
  std::string spansOut;  ///< where the traced run writes its spans
};

// ----------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The highest whole percentile that still has at least ten samples
/// strictly above it: a tail needs ten samples beyond it to mean
/// anything.
struct Tail {
  double value = 0.0;
  int pct = 50;
  std::size_t n = 0;
};
[[nodiscard]] Tail tailOf(const std::vector<double>& values);

// --------------------------------------------------------------- inputs

/// splitmix64 step: derives independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a 64 over everything the workload generated, so a result names
/// exactly which inputs it measured. The same seed gives the same hash.
class InputHash {
 public:
  void add(const void* data, std::size_t bytes);
  void addInt(long long v) { add(&v, sizeof v); }
  void addDouble(double v) { add(&v, sizeof v); }
  void addLayout(const mosaic::Layout& layout);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// --------------------------------------------------------------- tracer

/// In-memory span recorder for the traced run. Each span has a layer (the
/// library module the call went into), a name, an item id (clip, tile or
/// job) and a parent (the enclosing span on the same thread, or an
/// explicit one). Nothing is written until write() at the end of the run.
/// A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Span {
   public:
    Span(Tracer* tracer, const char* layer, const char* name,
         std::string item);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* layer_;
    const char* name_;
    std::string item_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double t0_ = 0.0;
  };

  /// RAII span around a call; nests under the thread's open span.
  [[nodiscard]] Span span(const char* layer, const char* name,
                          std::string item = {}) {
    return Span(enabled_ ? this : nullptr, layer, name, std::move(item));
  }

  /// Record an interval measured elsewhere (an iteration callback, a job
  /// observed finishing). Returns its id so children can point at it.
  std::uint64_t add(const char* layer, const char* name,
                    const std::string& item, double t0Ms, double t1Ms,
                    std::uint64_t parent);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const;

  /// Per layer: summed span time minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, double> selfMsByLayer() const;
  /// Per "layer.name": mean span duration and count.
  struct NameStats {
    double totalMs = 0.0;
    long long count = 0;
    [[nodiscard]] double meanMs() const {
      return count ? totalMs / static_cast<double>(count) : 0.0;
    }
  };
  [[nodiscard]] std::map<std::string, NameStats> byName() const;

  /// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
  void write(const std::string& path) const;

 private:
  struct Record {
    std::uint64_t id;
    std::uint64_t parent;
    const char* layer;
    const char* name;
    std::string item;
    double t0;
    double t1;
    std::uint64_t thread;
  };
  std::uint64_t push(Record record);

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::uint64_t nextId_ = 1;
};

// ------------------------------------------------- program telemetry reads

/// Read-only view of the program's exported telemetry (counters and the
/// histograms its own spans feed). Deltas between two views isolate one
/// phase of a run.
struct Telemetry {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> histCount;
  std::map<std::string, double> histSumUs;

  static Telemetry read();
  [[nodiscard]] Telemetry minus(const Telemetry& before) const;
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  [[nodiscard]] double sumMs(const std::string& name) const;
  void accumulate(const Telemetry& delta);
};

// --------------------------------------------------------------- result

/// Everything one run reports. main() adds the machine stamp and prints it.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> e2e;    ///< BENCHMARK.json end_to_end names
  std::map<std::string, Metric> layer;  ///< BENCHMARK.json per_layer names
  /// Human-readable report lines: every workload-named metric with its unit,
  /// percentile and sample count, and the output checks.
  std::vector<std::string> report;
  std::map<std::string, std::string> stamp;  ///< machine + input stamp
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::vector<std::string> checkFailures;

  void setE2e(const std::string& name, double value, const std::string& unit);
  void setLayer(const std::string& name, double value,
                const std::string& unit);
  void line(const std::string& text) { report.push_back(text); }
  /// A failed check fails the run; it does not just move a metric.
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::string json() const;
};

/// printf-style std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// "p50 1.23 ms, p83 4.56 ms (n=60)" for a latency sample set.
[[nodiscard]] std::string describeLatency(const std::string& name,
                                          const std::vector<double>& ms,
                                          const std::string& unit,
                                          double scale = 1.0);

/// Peak resident set size of this process in MB (getrusage).
[[nodiscard]] double peakRssMb();

/// Reports the per-layer self times and counts every traced run shares.
void reportTrace(const Tracer& tracer, Result& result);

// ------------------------------------------------------------ workloads

Result runClipSuite(const Options& opt, Tracer& tracer);
Result runChipMixed(const Options& opt, Tracer& tracer);
Result runServeOpen(const Options& opt, Tracer& tracer);

}  // namespace mosaicbench
