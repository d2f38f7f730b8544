/// serve_open — the `mosaic_serve` path, driven open loop.
///
/// JobService + ServeServer run in process on loopback with 2 service
/// workers, the journal and checkpoints in a scratch work dir, and the
/// pattern cache on. Every job is a distinct random:<seed> clip, so each
/// lookup misses and inserts (the cache's write path). One client
/// connection submits on a seeded Poisson schedule at two fixed rates,
/// `low` and `high`, then climbs a fixed ladder of rates until a rung
/// misses the latency limit or its backlog grows. Each job is timed from
/// when it was due, so a stalled generator shows up as latency; the
/// generator's own lateness is reported next to it. Completion is observed
/// in process by polling JobService::snapshot.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common.hpp"
#include "geometry/raster.hpp"
#include "opc/mosaic.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"
#include "support/socket.hpp"

namespace mosaicbench {
namespace {

using namespace mosaic;

constexpr int kServiceWorkers = 2;
constexpr int kPixelNm = 16;  // 64^2 grid for the 1024 nm clip
constexpr int kQueueCapacity = 128;
constexpr int kSetups = 3;
constexpr int kVerifyWorkers = 4;
/// Offered rates in jobs/s. `high` stays clearly below what two workers
/// sustain; the ladder brackets that capacity with room to grow.
constexpr double kLowRate = 10.0;
constexpr double kHighRate = 30.0;
/// Saturation throughput: this many jobs, submitted closed loop so that
/// kSaturationDepth are always admitted but unfinished.
constexpr int kSaturationJobs = 256;
constexpr int kSaturationDepth = 16;
/// Seed of the arrival schedules. Every run replays the same Poisson draw
/// per phase, so runs with different --seed values (which draw different
/// clips) see the same bursts and a tail change reflects the service,
/// not the draw.
constexpr std::uint64_t kScheduleSeed = 20140601;
/// The ladder climbs from the `high` phase in ~12% steps.
const std::vector<double> kLadder = {34, 38, 42, 47, 53, 59, 66, 74,
                                     83, 93, 104, 116, 130, 146, 164};
/// A ladder rung passes when its tail latency stays under this limit, no
/// job is refused, and its backlog does not grow.
constexpr double kTailLimitMs = 250.0;
/// Backlog growth (jobs) that fails a rung regardless of its tail: at
/// least this many, or this share of the rung's arrivals.
constexpr double kBacklogSlack = 4.0;
constexpr double kBacklogSlackShare = 0.15;

struct Job {
  std::uint64_t clipSeed = 0;
  double dueMs = 0.0;   ///< schedule offset within the phase
  double dueAbs = 0.0;  ///< absolute due time
  double sendMs = 0.0;
  double ackMs = 0.0;
  double doneMs = 0.0;
  double runMs = 0.0;  ///< service-side wall time of the job
  std::string id;
  bool refused = false;
  bool done = false;
  std::string state;
  std::string maskHash;
  int iterations = 0;
};

struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<Job> jobs;
  std::vector<int> backlog;  ///< accepted-but-unfinished jobs at each submit
  bool timedOut = false;

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> ms;
    for (const Job& j : jobs) {
      ms.push_back(j.done && !j.refused && j.state == "done"
                       ? j.doneMs - j.dueAbs
                       : INFINITY);
    }
    return ms;
  }
  [[nodiscard]] int refused() const {
    int n = 0;
    for (const Job& j : jobs) n += j.refused ? 1 : 0;
    return n;
  }
  [[nodiscard]] bool passes() const {
    return !timedOut && refused() == 0 &&
           tailOf(latencies()).value <= kTailLimitMs && !backlogGrows();
  }
  /// Backlog over the last quarter of the arrivals exceeds the first
  /// half's by more than a few jobs: arrivals outpace service.
  [[nodiscard]] bool backlogGrows() const {
    const double slack = std::max(
        kBacklogSlack, kBacklogSlackShare * static_cast<double>(jobs.size()));
    return meanBacklog(3 * backlog.size() / 4, backlog.size()) >
           meanBacklog(0, backlog.size() / 2) + slack;
  }
  [[nodiscard]] double meanBacklog(std::size_t from, std::size_t to) const {
    if (to <= from) return 0.0;
    double sum = 0.0;
    for (std::size_t i = from; i < to; ++i) sum += backlog[i];
    return sum / static_cast<double>(to - from);
  }
  /// Completed jobs over the span from the first due time to the last
  /// completion.
  [[nodiscard]] double completionRate() const {
    double first = INFINITY, last = 0.0;
    int completed = 0;
    for (const Job& j : jobs) {
      first = std::min(first, j.dueAbs);
      if (j.done && j.state == "done") {
        ++completed;
        last = std::max(last, j.doneMs);
      }
    }
    return last > first ? completed / ((last - first) / 1000.0) : 0.0;
  }
};

/// A seeded Poisson arrival schedule of exactly round(rate * seconds)
/// jobs: a Poisson process conditioned on its count, i.e. sorted uniform
/// arrival times. Fixing the count keeps every run's sample size equal.
Phase makePhase(const std::string& name, double rate, double seconds,
                std::uint64_t seed, std::uint64_t* nextClipSeed,
                InputHash& hash) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  const int n = std::max(1, static_cast<int>(std::lround(rate * seconds)));
  std::mt19937_64 rng(seed);
  std::vector<double> due(static_cast<std::size_t>(n));
  for (double& d : due) {
    d = std::ldexp(static_cast<double>(rng() >> 11), -53) * seconds * 1000.0;
  }
  std::sort(due.begin(), due.end());
  for (const double d : due) {
    Job job;
    job.dueMs = d;
    job.clipSeed = (*nextClipSeed)++;
    hash.addDouble(d);
    hash.addInt(static_cast<long long>(job.clipSeed));
    phase.jobs.push_back(job);
  }
  return phase;
}

/// The offered rate at which the tail latency reaches the limit,
/// interpolated in log(tail) between the highest passing rung and the
/// first failing one. A rung fails on a discrete step, so reading the
/// crossing between two rungs keeps the estimate from jumping a whole
/// rung when the tail sits near the limit. When the failing rung failed
/// on refusals or backlog growth rather than tail, the passing rung's
/// rate stands.
double crossingRate(const Phase* pass, const Phase* fail) {
  if (pass == nullptr) return fail ? fail->completionRate() : 0.0;
  if (fail == nullptr) return pass->rate;
  const double tPass = tailOf(pass->latencies()).value;
  const double tFail = tailOf(fail->latencies()).value;
  if (!(tFail > kTailLimitMs) || !std::isfinite(tFail) || tPass <= 0.0) {
    return pass->rate;
  }
  const double frac = (std::log(kTailLimitMs) - std::log(tPass)) /
                      (std::log(tFail) - std::log(tPass));
  return pass->rate + (fail->rate - pass->rate) * std::clamp(frac, 0.0, 1.0);
}

std::string jsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

/// One in-process service + server, the client connection, and the
/// completion poller.
class Instance {
 public:
  Instance(const std::string& workDir, Tracer& tracer) : tracer_(tracer) {
    serve::ServeConfig cfg;
    cfg.workDir = workDir;
    cfg.workers = kServiceWorkers;
    cfg.queueCapacity = kQueueCapacity;
    cfg.patternCacheDir = workDir + "/patterns";
    {
      auto span = tracer_.span("serve", "start", workDir);
      service_ = std::make_unique<serve::JobService>(cfg);
      serve::ServerOptions options;
      options.pollMs = 20;
      server_ = std::make_unique<serve::ServeServer>(*service_, options);
      serverThread_ = std::thread([this] { server_->serveForever(&stop_); });
      client_ = std::make_unique<LineChannel>(
          connectTcp("127.0.0.1", server_->port()));
    }
    poller_ = std::thread([this] { pollLoop(); });
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  ~Instance() {
    stopPoll_.store(true);
    if (poller_.joinable()) poller_.join();
    stop_.cancel();
    if (serverThread_.joinable()) serverThread_.join();
    client_.reset();
    if (service_) service_->drain(serve::DrainMode::kFinish);
    server_.reset();
    service_.reset();
  }

  /// Submit over the protocol; records send/ack times and the job id.
  void submit(Job& job, std::uint64_t parent) {
    const std::string line =
        format("{\"op\":\"submit\",\"case\":\"random:%llu\",\"method\":"
               "\"fast\",\"pixel_nm\":%d}",
               static_cast<unsigned long long>(job.clipSeed), kPixelNm);
    job.sendMs = nowMs();
    client_->writeLine(line);
    std::string response;
    if (!client_->readLine(&response, 10000)) {
      throw std::runtime_error("serve: no response to submit");
    }
    job.ackMs = nowMs();
    if (tracer_.enabled()) {
      tracer_.add("serve", "submit", format("seed%llu", static_cast<unsigned long long>(job.clipSeed)),
                  job.sendMs, job.ackMs, parent);
    }
    if (response.find("\"ok\":true") == std::string::npos) {
      job.refused = true;
      job.done = true;
      job.state = jsonField(response, "error");
      return;
    }
    job.id = jsonField(response, "job");
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding_.push_back(&job);
  }

  [[nodiscard]] int backlog() {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(outstanding_.size());
  }

  /// Wait until every accepted job has reached a terminal state.
  bool waitIdle(double timeoutMs) {
    const double until = nowMs() + timeoutMs;
    while (backlog() > 0) {
      if (nowMs() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  [[nodiscard]] serve::ServiceStats stats() const { return service_->stats(); }

 private:
  void pollLoop() {
    while (!stopPoll_.load()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = outstanding_.begin(); it != outstanding_.end();) {
          Job& job = **it;
          serve::JobSnapshot snap;
          if (service_->snapshot(job.id, &snap) &&
              snap.state != serve::JobState::kQueued &&
              snap.state != serve::JobState::kRunning) {
            job.doneMs = nowMs();
            job.done = true;
            job.state = serve::jobStateName(snap.state);
            job.maskHash = snap.maskHash;
            job.runMs = snap.wallSeconds * 1000.0;
            job.iterations = snap.iterationsDone;
            if (tracer_.enabled()) {
              const std::uint64_t span = tracer_.add(
                  "serve", "job", job.id, job.dueAbs, job.doneMs, 0);
              tracer_.add("serve", "submit_wait", job.id, job.dueAbs,
                          job.sendMs, span);
              tracer_.add("serve", "run", job.id, job.doneMs - job.runMs,
                          job.doneMs, span);
            }
            it = outstanding_.erase(it);
          } else {
            ++it;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  Tracer& tracer_;
  std::unique_ptr<serve::JobService> service_;
  std::unique_ptr<serve::ServeServer> server_;
  CancelToken stop_;
  std::thread serverThread_;
  std::unique_ptr<LineChannel> client_;
  std::mutex mutex_;
  std::vector<Job*> outstanding_;
  std::atomic<bool> stopPoll_{false};
  std::thread poller_;
};

void runPhase(Instance& inst, Phase& phase, Tracer& tracer) {
  auto span = tracer.span("bench", "phase", phase.name);
  const double base = nowMs() + 20.0;
  for (std::size_t i = 0; i < phase.jobs.size(); ++i) {
    Job& job = phase.jobs[i];
    job.dueAbs = base + job.dueMs;
    const double wait = job.dueAbs - nowMs();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
    }
    inst.submit(job, span.id());
    phase.backlog.push_back(inst.backlog());
  }
  phase.timedOut = !inst.waitIdle(60000.0);
}

/// Closed loop: submit the next job as soon as fewer than
/// kSaturationDepth are outstanding. A job is due when it is submitted.
void runSaturation(Instance& inst, Phase& phase, Tracer& tracer) {
  auto span = tracer.span("bench", "phase", phase.name);
  for (Job& job : phase.jobs) {
    while (inst.backlog() >= kSaturationDepth) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    job.dueAbs = nowMs();
    inst.submit(job, span.id());
  }
  phase.timedOut = !inst.waitIdle(60000.0);
}

}  // namespace

Result runServeOpen(const Options& opt, Tracer& tracer) {
  // Nested pixel loops run inline on each service worker: two compute
  // threads in all.
  setParallelism(1);
  Result result;
  result.stamp["workers"] = format("%d service, pool 1", kServiceWorkers);

  // ---- inputs: clip seeds from the run seed, schedules from kScheduleSeed ----
  InputHash hash;
  std::uint64_t nextClipSeed = mixSeed(opt.seed, 1) % 1000000000ull;
  std::vector<std::uint64_t> primeSeeds;
  for (int i = 0; i < kSetups; ++i) primeSeeds.push_back(nextClipSeed++);
  const double rungSeconds = std::max(1.0, 0.075 * opt.seconds);
  Phase low = makePhase("low", kLowRate, 0.5 * opt.seconds,
                        mixSeed(kScheduleSeed, 2), &nextClipSeed, hash);
  Phase high = makePhase("high", kHighRate, 0.25 * opt.seconds,
                         mixSeed(kScheduleSeed, 3), &nextClipSeed, hash);
  Phase saturation;
  saturation.name = "saturation";
  for (int i = 0; i < kSaturationJobs; ++i) {
    Job job;
    job.clipSeed = nextClipSeed++;
    hash.addInt(static_cast<long long>(job.clipSeed));
    saturation.jobs.push_back(job);
  }
  std::vector<Phase> ladder;
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    ladder.push_back(makePhase(format("rung%.0f", kLadder[i]), kLadder[i],
                               rungSeconds, mixSeed(kScheduleSeed, 10 + i),
                               &nextClipSeed, hash));
  }
  result.stamp["input_hash"] = hash.hex();

  // ---- setup: service up until a first job has run (warm simulator) ----
  std::vector<double> setupS;
  std::unique_ptr<Instance> inst;
  std::vector<Job> primes(kSetups);
  const Telemetry beforeSetup = Telemetry::read();
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    const double t0 = nowMs();
    inst = std::make_unique<Instance>(
        format("%s/serve%d", opt.workDir.c_str(), i), tracer);
    Job& prime = primes[static_cast<std::size_t>(i)];
    prime.clipSeed = primeSeeds[static_cast<std::size_t>(i)];
    prime.dueAbs = nowMs();
    inst->submit(prime, 0);
    if (!inst->waitIdle(60000.0) || prime.state != "done") {
      throw std::runtime_error("serve: priming job did not finish");
    }
    setupS.push_back((nowMs() - t0) / 1000.0);
  }
  const Telemetry setupDelta = Telemetry::read().minus(beforeSetup);

  // ---- measured phases ----
  const Telemetry beforeRun = Telemetry::read();
  runPhase(*inst, low, tracer);
  runPhase(*inst, high, tracer);
  runSaturation(*inst, saturation, tracer);
  // The `high` phase is the ladder's first rung.
  std::vector<const Phase*> measured{&low, &high, &saturation};
  const Phase* best = high.passes() ? &high : nullptr;
  const Phase* firstFail = best ? nullptr : &high;
  for (Phase& rung : ladder) {
    if (firstFail) break;
    runPhase(*inst, rung, tracer);
    measured.push_back(&rung);
    if (rung.passes()) {
      best = &rung;
    } else {
      firstFail = &rung;
    }
  }
  const Telemetry runDelta = Telemetry::read().minus(beforeRun);
  const serve::ServiceStats stats = inst->stats();
  // Before the verification below, which runs 4 threads of runOpc.
  result.setE2e("peak_rss_mb", peakRssMb(), "MB");
  inst.reset();

  // ---- output checks ----
  std::vector<const Job*> finished;
  for (const Phase* p : measured) {
    for (const Job& j : p->jobs) {
      ++result.attempted;
      if (j.refused || !j.done || j.state != "done") {
        ++result.failed;
      } else {
        finished.push_back(&j);
      }
    }
  }
  result.check(result.failed == 0,
               format("%zu of %lld jobs done (%d refused at high, %d at low)",
                      finished.size(), result.attempted, high.refused(),
                      low.refused()));
  result.check(stats.cache.exactHits == 0 && stats.cache.translatedHits == 0 &&
                   stats.cache.nearMissHits == 0,
               format("every job missed the pattern cache (%llu misses, %llu "
                      "inserts)",
                      static_cast<unsigned long long>(stats.cache.misses),
                      static_cast<unsigned long long>(stats.cache.inserts)));
  // Each finished job's mask hash equals the same spec run directly.
  setParallelism(kVerifyWorkers);
  OpticsConfig optics;
  optics.pixelNm = kPixelNm;
  const LithoSimulator sim(optics);
  std::atomic<int> mismatches{0};
  parallelFor(0, finished.size(), [&](std::size_t k) {
    const Job& job = *finished[k];
    const BitGrid target = rasterize(buildRandomClip(job.clipSeed), kPixelNm);
    const IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, kPixelNm);
    const OpcResult res =
        runOpc(sim, target, OpcMethod::kMosaicFast, &cfg);
    if (serve::maskHashHex(res.maskTwoLevel) != job.maskHash) ++mismatches;
  });
  result.check(mismatches.load() == 0,
               format("%zu job mask hashes equal a direct runOpc of the same "
                      "spec (%d mismatched)",
                      finished.size(), mismatches.load()));

  // ---- end-to-end metrics ----
  // The open-loop tails straddle a small population of slow jobs (two
  // jobs sharing a core, machine hiccups) whose share changes from run to
  // run: over ten seeds on the reference machine the `high` tail spread by
  // 29% of its median (quartiles) and the `low` tail by 28%. The tail that
  // gates is the saturation phase's, where every job queues behind the
  // others; the open-loop tails are per-layer metrics.
  const std::vector<double> lowMs = low.latencies();
  const std::vector<double> highMs = high.latencies();
  const double maxRate = crossingRate(best, firstFail);
  const double saturationRate = saturation.completionRate();
  result.setE2e("setup_s", median(setupS), "s");
  result.setE2e("throughput_per_s", saturationRate, "1/s");
  result.setE2e("latency_p50_ms", median(lowMs), "ms");
  result.setE2e("latency_tail_ms", tailOf(saturation.latencies()).value,
                "ms");
  result.line(format("setup_s: %.4f s (median of %d: service + server up, "
                     "first job done on a fresh warm simulator)",
                     median(setupS), kSetups));
  for (const Phase* p : {&low, &high}) {
    const std::vector<double> ms = p->latencies();
    const Tail tail = tailOf(ms);
    result.line(format("job_p50_ms.%s: %.4f ms, job_tail_ms.%s: p%d %.4f ms "
                       "(n=%zu, offered %.0f jobs/s, %d refused)",
                       p->name.c_str(), median(ms), p->name.c_str(), tail.pct,
                       tail.value, tail.n, p->rate, p->refused()));
  }
  result.line(format("saturation_jobs_per_s: %.4f 1/s (%d jobs, closed "
                     "loop at %d admitted-but-unfinished, first submit to "
                     "last done)",
                     saturationRate, kSaturationJobs, kSaturationDepth));
  result.line(describeLatency("saturation_job_ms", saturation.latencies(),
                              "ms"));
  std::string ladderLine = "ladder:";
  for (const Phase* p : measured) {
    if (p == &low || p == &saturation) continue;
    const std::size_t n = p->backlog.size();
    ladderLine += format(" %.0f/s %s (tail p%d %.1f ms, backlog %.1f->%.1f);",
                         p->rate, p->passes() ? "pass" : "FAIL",
                         tailOf(p->latencies()).pct,
                         tailOf(p->latencies()).value,
                         p->meanBacklog(0, n / 2),
                         p->meanBacklog(3 * n / 4, n));
  }
  result.line(ladderLine);
  result.line(format("max_jobs_per_s: %.4f 1/s (highest passing rung %s; "
                     "tail crosses the limit between it and %s; limit: tail "
                     "<= %.0f ms, no refusal, no growing backlog)",
                     maxRate, best ? best->name.c_str() : "none",
                     firstFail ? firstFail->name.c_str() : "none",
                     kTailLimitMs));

  std::vector<double> lateMs, submitUs, queueMs, runMs;
  for (const Job* j : finished) {
    submitUs.push_back((j->ackMs - j->sendMs) * 1000.0);
    runMs.push_back(j->runMs);
  }
  for (const Job& j : high.jobs) {
    queueMs.push_back(std::max(0.0, j.doneMs - j.ackMs - j.runMs));
  }
  double maxLate = 0.0;
  for (const Phase* p : measured) {
    if (p == &saturation) continue;  // closed loop: no schedule to be late on
    for (const Job& j : p->jobs) {
      lateMs.push_back(j.sendMs - j.dueAbs);
      maxLate = std::max(maxLate, j.sendMs - j.dueAbs);
    }
  }
  result.line(format("serve.generator_late_ms: p50 %.4f ms, max %.4f ms",
                     median(lateMs), maxLate));
  result.line(format("failed_frac: %.4g ratio (%lld of %lld jobs; low rate "
                     "%d of %zu)",
                     static_cast<double>(result.failed) / result.attempted,
                     result.failed, result.attempted, low.refused(),
                     low.jobs.size()));

  // ---- per-layer metrics ----
  const std::uint64_t kernelSets = setupDelta.count("litho.kernels.compute");
  result.setLayer("litho.kernel_sets",
                  static_cast<double>(kernelSets +
                                      runDelta.count("litho.kernels.compute")),
                  "count");
  if (kernelSets > 0) {
    result.setLayer("litho.kernels_s",
                    setupDelta.sumMs("litho.kernels.compute") / 1000.0 /
                        static_cast<double>(kernelSets),
                    "s");
  }
  const double evals =
      static_cast<double>(runDelta.count("objective.evaluate"));
  if (evals > 0) {
    result.setLayer("litho.aerial_sums_per_eval",
                    runDelta.count("litho.aerial") / evals, "count");
    result.setLayer("litho.mask_spectra_per_eval",
                    runDelta.counter("litho.mask_spectrum") / evals, "count");
  }
  if (runDelta.count("opt.iteration") > 0) {
    result.setLayer("opc.iteration_ms",
                    runDelta.sumMs("opt.iteration") /
                        static_cast<double>(runDelta.count("opt.iteration")),
                    "ms");
  }
  long long iterations = 0;
  for (const Job* j : finished) iterations += j->iterations;
  result.setLayer("opc.iterations", static_cast<double>(iterations), "count");
  const double lookups = static_cast<double>(runDelta.count("cache.lookup_ms"));
  const double inserts = static_cast<double>(runDelta.count("cache.insert"));
  if (lookups > 0) {
    result.setLayer("cache.lookup_ms", runDelta.sumMs("cache.lookup_ms") / lookups,
                    "ms");
  }
  if (inserts > 0) {
    result.setLayer("cache.insert_ms", runDelta.sumMs("cache.insert") / inserts,
                    "ms");
  }
  result.setLayer("cache.exact_hit_frac",
                  lookups > 0 ? runDelta.counter("cache.hit") / lookups : 0.0,
                  "ratio");
  result.setLayer("serve.submit_us", median(submitUs), "us");
  result.setLayer("serve.queue_wait_ms", median(queueMs), "ms");
  result.setLayer("serve.run_ms", median(runMs), "ms");
  result.setLayer("serve.rejected", static_cast<double>(stats.rejected),
                  "count");
  result.setLayer("serve.retries", static_cast<double>(stats.retries),
                  "count");
  result.setLayer("serve.generator_late_ms", maxLate, "ms");
  result.setLayer("serve.max_jobs_per_s", maxRate, "1/s");
  result.setLayer("serve.job_tail_ms.low", tailOf(lowMs).value, "ms");
  result.setLayer("serve.job_p50_ms.high", median(highMs), "ms");
  result.setLayer("serve.job_tail_ms.high", tailOf(highMs).value, "ms");
  return result;
}

}  // namespace mosaicbench
