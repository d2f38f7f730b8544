#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "support/telemetry/metrics.hpp"

namespace mosaicbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

thread_local std::vector<std::uint64_t> t_openSpans;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return format("%.17g", v);
}

}  // namespace

double nowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) return {};
  if (static_cast<std::size_t>(n) < sizeof buf) return std::string(buf, n);
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<std::size_t>(n));
  return big;
}

// ----------------------------------------------------------- statistics

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Tail tailOf(const std::vector<double>& values) {
  Tail tail;
  tail.n = values.size();
  // With n samples, a percentile p leaves n * (1 - p/100) above it.
  int pct = 50;
  for (int p = 99; p > 50; --p) {
    if (static_cast<double>(values.size()) * (100 - p) / 100.0 >= 10.0) {
      pct = p;
      break;
    }
  }
  tail.pct = pct;
  tail.value = percentile(values, pct);
  return tail;
}

std::string describeLatency(const std::string& name,
                            const std::vector<double>& ms,
                            const std::string& unit, double scale) {
  std::vector<double> scaled;
  scaled.reserve(ms.size());
  for (const double v : ms) scaled.push_back(v * scale);
  const Tail tail = tailOf(scaled);
  return format("%s: p50 %.4g %s, tail p%d %.4g %s (n=%zu)", name.c_str(),
                median(scaled), unit.c_str(), tail.pct, tail.value,
                unit.c_str(), tail.n);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------- inputs

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void InputHash::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void InputHash::addLayout(const mosaic::Layout& layout) {
  addInt(layout.sizeNm);
  addInt(static_cast<long long>(layout.rects.size()));
  for (const mosaic::RectNm& r : layout.rects) {
    const int v[4] = {r.x0, r.y0, r.x1, r.y1};
    add(v, sizeof v);
  }
}

std::string InputHash::hex() const {
  return format("%016llx", static_cast<unsigned long long>(h_));
}

// --------------------------------------------------------------- tracer

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) records_.reserve(1 << 16);
}

Tracer::Span::Span(Tracer* tracer, const char* layer, const char* name,
                   std::string item)
    : tracer_(tracer), layer_(layer), name_(name), item_(std::move(item)) {
  if (!tracer_) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    id_ = tracer_->nextId_++;
  }
  parent_ = t_openSpans.empty() ? 0 : t_openSpans.back();
  t_openSpans.push_back(id_);
  t0_ = nowMs();
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  const double t1 = nowMs();
  t_openSpans.pop_back();
  tracer_->push({id_, parent_, layer_, name_, std::move(item_), t0_, t1,
                 std::hash<std::thread::id>{}(std::this_thread::get_id())});
}

std::uint64_t Tracer::push(Record record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (record.id == 0) record.id = nextId_++;
  records_.push_back(std::move(record));
  return records_.back().id;
}

std::uint64_t Tracer::add(const char* layer, const char* name,
                          const std::string& item, double t0Ms, double t1Ms,
                          std::uint64_t parent) {
  if (!enabled_) return 0;
  return push({0, parent, layer, name, item, t0Ms, t1Ms,
               std::hash<std::thread::id>{}(std::this_thread::get_id())});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Record& r : records_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.t0, r.t1);
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    double covered = 0.0;
    const auto it = children.find(r.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to this span.
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double curLo = 0.0, curHi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.t0);
        hi = std::min(hi, r.t1);
        if (hi <= lo) continue;
        if (lo > curHi) {
          if (curHi > curLo) covered += curHi - curLo;
          curLo = lo;
          curHi = hi;
        } else {
          curHi = std::max(curHi, hi);
        }
      }
      if (curHi > curLo) covered += curHi - curLo;
    }
    self[r.layer] += std::max(0.0, (r.t1 - r.t0) - covered);
  }
  return self;
}

std::map<std::string, Tracer::NameStats> Tracer::byName() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, NameStats> out;
  for (const Record& r : records_) {
    NameStats& s = out[std::string(r.layer) + "." + r.name];
    s.totalMs += r.t1 - r.t0;
    ++s.count;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"traceEvents\":[\n";
  std::map<std::uint64_t, int> tids;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const int tid = tids.emplace(r.thread, static_cast<int>(tids.size()))
                        .first->second;
    out << "{\"name\":" << jsonString(r.name)
        << ",\"cat\":" << jsonString(r.layer) << ",\"ph\":\"X\",\"ts\":"
        << jsonNumber(r.t0 * 1e3) << ",\"dur\":"
        << jsonNumber((r.t1 - r.t0) * 1e3) << ",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"item\":" << jsonString(r.item) << "}}"
        << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ------------------------------------------------- program telemetry reads

Telemetry Telemetry::read() {
  const mosaic::telemetry::MetricsSnapshot snap =
      mosaic::telemetry::metrics().snapshot();
  Telemetry t;
  t.counters = snap.counters;
  for (const auto& [name, h] : snap.histograms) {
    t.histCount[name] = h.count;
    t.histSumUs[name] = h.sumUs;
  }
  return t;
}

Telemetry Telemetry::minus(const Telemetry& before) const {
  Telemetry d = *this;
  for (auto& [name, v] : d.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) v -= it->second;
  }
  for (auto& [name, v] : d.histCount) {
    const auto it = before.histCount.find(name);
    if (it != before.histCount.end()) v -= it->second;
  }
  for (auto& [name, v] : d.histSumUs) {
    const auto it = before.histSumUs.find(name);
    if (it != before.histSumUs.end()) v -= it->second;
  }
  return d;
}

void Telemetry::accumulate(const Telemetry& delta) {
  for (const auto& [name, v] : delta.counters) counters[name] += v;
  for (const auto& [name, v] : delta.histCount) histCount[name] += v;
  for (const auto& [name, v] : delta.histSumUs) histSumUs[name] += v;
}

std::uint64_t Telemetry::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t Telemetry::count(const std::string& name) const {
  const auto it = histCount.find(name);
  return it == histCount.end() ? 0 : it->second;
}

double Telemetry::sumMs(const std::string& name) const {
  const auto it = histSumUs.find(name);
  return it == histSumUs.end() ? 0.0 : it->second / 1000.0;
}

// --------------------------------------------------------------- result

void Result::setE2e(const std::string& name, double value,
                    const std::string& unit) {
  e2e[name] = {value, unit};
}

void Result::setLayer(const std::string& name, double value,
                      const std::string& unit) {
  layer[name] = {value, unit};
}

void Result::check(bool ok, const std::string& what) {
  report.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) {
    correct = false;
    checkFailures.push_back(what);
  }
}

std::string Result::json() const {
  const auto metrics = [](const std::map<std::string, Metric>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, metric] : m) {
      if (!first) out += ",";
      first = false;
      out += jsonString(name) + ":{\"value\":" + jsonNumber(metric.value) +
             ",\"unit\":" + jsonString(metric.unit) + "}";
    }
    return out + "}";
  };
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"e2e\":" + metrics(e2e);
  out += ",\"layer\":" + metrics(layer);
  out += ",\"stamp\":{";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    if (!first) out += ",";
    first = false;
    out += jsonString(k) + ":" + jsonString(v);
  }
  out += "},\"check_failures\":[";
  for (std::size_t i = 0; i < checkFailures.size(); ++i) {
    out += (i ? "," : "") + jsonString(checkFailures[i]);
  }
  out += "]}";
  return out;
}

void reportTrace(const Tracer& tracer, Result& result) {
  for (const auto& [layerName, ms] : tracer.selfMsByLayer()) {
    result.setLayer("self_ms." + layerName, ms, "ms");
  }
  result.setLayer("trace.spans", static_cast<double>(tracer.size()),
                  "count");
}

}  // namespace mosaicbench
