#include "obs/registry.h"

#include <cmath>
#include <cstdio>

#include "common/jsonl.h"

namespace gfi::obs {
namespace {

/// Bare JSON number with append_f64's conventions (%.17g, non-finite→null).
std::string bare_f64(f64 value) {
  if (!std::isfinite(value)) return "null";
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::histogram(const std::string& name, f64 lo, f64 hi,
                                      std::size_t bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>(lo, hi, bins);
  return *slot;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    const LatencyHistogram::Sample sample = histogram->sample();
    Snapshot::HistogramSnapshot h;
    h.lo = sample.histogram.bin_lo(0);
    h.hi = sample.histogram.bin_hi(sample.histogram.bins() - 1);
    h.bin_counts.reserve(sample.histogram.bins());
    for (std::size_t b = 0; b < sample.histogram.bins(); ++b) {
      h.bin_counts.push_back(sample.histogram.count(b));
    }
    h.dropped = sample.histogram.dropped();
    h.stats = sample.stats;
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

void Registry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] = value;
  for (const auto& [name, histogram] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = histogram;
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.bin_counts.size() != histogram.bin_counts.size() ||
        mine.lo != histogram.lo || mine.hi != histogram.hi) {
      // Incompatible bounds cannot fold bin-by-bin; keep the moments (which
      // merge exactly regardless) and drop the other's bins into dropped so
      // totals stay conserved.
      for (f64 c : histogram.bin_counts) mine.dropped += c;
    } else {
      for (std::size_t b = 0; b < mine.bin_counts.size(); ++b) {
        mine.bin_counts[b] += histogram.bin_counts[b];
      }
    }
    mine.dropped += histogram.dropped;
    mine.stats.merge(histogram.stats);
  }
}

std::string Snapshot::to_json() const {
  // Nested JSON; the flat jsonl helpers write each leaf object and this
  // function glues the sections together.
  std::string out = "{\n \"counters\": {";
  std::string line;
  bool first = true;
  for (const auto& [name, value] : counters) {
    line.clear();
    jsonl::append_u64(line, name.c_str(), value);
    out += first ? "\n  " : ",\n  ";
    out += line;
    first = false;
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    line.clear();
    jsonl::append_f64(line, name.c_str(), value);
    out += first ? "\n  " : ",\n  ";
    out += line;
    first = false;
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    line.clear();
    line += '{';
    jsonl::append_f64(line, "lo", histogram.lo);
    jsonl::append_f64(line, "hi", histogram.hi);
    jsonl::append_key(line, "bins");
    line += '[';
    for (std::size_t b = 0; b < histogram.bin_counts.size(); ++b) {
      if (b) line += ',';
      line += bare_f64(histogram.bin_counts[b]);
    }
    line += ']';
    jsonl::append_f64(line, "dropped", histogram.dropped);
    jsonl::append_u64(line, "count", histogram.stats.count());
    jsonl::append_f64(line, "mean", histogram.stats.mean());
    jsonl::append_f64(line, "stddev", histogram.stats.stddev());
    jsonl::append_f64(line, "min", histogram.stats.min());
    jsonl::append_f64(line, "max", histogram.stats.max());
    line += '}';
    out += first ? "\n  " : ",\n  ";
    out += '"';
    out += name;
    out += "\": ";
    out += line;
    first = false;
  }
  out += first ? "}\n}\n" : "\n }\n}\n";
  return out;
}

}  // namespace gfi::obs
