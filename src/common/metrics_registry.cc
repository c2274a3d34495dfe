#include "src/common/metrics_registry.h"

#include <cstdio>
#include <sstream>

namespace orion {

namespace {

// JSON string escaping, defensive about names that were never meant to hold
// quotes or control characters (a corrupted name must not corrupt the dump).
void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    const unsigned char uc = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (uc < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", uc);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

MetricsRegistry::MetricsRegistry(const MetricsRegistry& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
  series_ = other.series_;
}

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& other) {
  if (this == &other) return *this;
  std::map<std::string, u64> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, WaitHistogram> histograms;
  std::map<std::string, std::vector<double>> series;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    counters = other.counters_;
    gauges = other.gauges_;
    histograms = other.histograms_;
    series = other.series_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = std::move(counters);
  gauges_ = std::move(gauges);
  histograms_ = std::move(histograms);
  series_ = std::move(series);
  return *this;
}

void MetricsRegistry::SetCounter(const std::string& name, u64 value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

void MetricsRegistry::AddCounter(const std::string& name, u64 delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

WaitHistogram& MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

void MetricsRegistry::AppendSeries(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[name].push_back(value);
}

const std::vector<double>* MetricsRegistry::Series(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<double> MetricsRegistry::SeriesCopy(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>() : it->second;
}

u64 MetricsRegistry::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::Gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

bool MetricsRegistry::HasHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.count(name) != 0;
}

std::map<std::string, u64> MetricsRegistry::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, double> MetricsRegistry::GaugesSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::map<std::string, WaitHistogram> MetricsRegistry::HistogramsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_;
}

std::map<std::string, std::vector<double>> MetricsRegistry::SeriesSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

std::string MetricsRegistry::ToJson() const {
  // One consistent cut vs. mutators: copy under the lock, render outside it
  // so a dump in flight never holds writers off for the whole render.
  const MetricsRegistry cut(*this);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : cut.counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(name, &out);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : cut.gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(name, &out);
    out += "\":" + Num(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : cut.histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(name, &out);
    out += "\":{\"counts\":[";
    for (int b = 0; b < WaitHistogram::kNumBuckets; ++b) {
      if (b > 0) out += ",";
      out += std::to_string(h.counts[b]);
    }
    out += "],\"total_seconds\":" + Num(h.total_seconds);
    out += ",\"max_seconds\":" + Num(h.max_seconds);
    out += ",\"count\":" + std::to_string(h.total_count());
    out += ",\"p50\":" + Num(h.ApproxPercentile(0.5));
    out += ",\"p90\":" + Num(h.ApproxPercentile(0.9));
    out += ",\"p99\":" + Num(h.ApproxPercentile(0.99));
    out += "}";
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [name, points] : cut.series_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(name, &out);
    out += "\":[";
    for (size_t i = 0; i < points.size(); ++i) {
      if (i > 0) out += ",";
      out += Num(points[i]);
    }
    out += "]";
  }
  out += "}}\n";
  return out;
}

Status MetricsRegistry::DumpJson(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open metrics file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to metrics file: " + path);
  }
  return Status::Ok();
}

}  // namespace orion
