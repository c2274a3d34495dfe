// Unified metrics registry: named counters, gauges, and wait histograms
// behind stable string names, with a deterministic JSON dump.
//
// LoopMetrics/RuntimeMetrics stay the wire/API structs. Their X-macro lists
// in src/runtime/metrics.h declare each field's registry name and kind, and
// Driver::ExportMetrics() flattens them into a registry from those lists, so
// benches and CI consume one schema (pass.wall_seconds, net.bytes_sent, ...)
// instead of struct fields.
//
// Thread-safety: every mutator and reader takes an internal mutex, so
// appending series points or bumping counters is safe concurrently with a
// ToJson()/DumpJson() in flight. The dump copies the registry under the lock
// (one consistent cut) and renders the copy outside it. The one escape hatch
// is Histogram(): the returned reference is meant for single-threaded merge
// loops and must not be mutated concurrently with a dump.
#ifndef ORION_SRC_COMMON_METRICS_REGISTRY_H_
#define ORION_SRC_COMMON_METRICS_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry& other);
  MetricsRegistry& operator=(const MetricsRegistry& other);

  void SetCounter(const std::string& name, u64 value);
  void AddCounter(const std::string& name, u64 delta);
  void SetGauge(const std::string& name, double value);

  // Returns the histogram registered under `name`, creating it empty on
  // first use (merge into the returned reference). The reference escapes
  // the registry lock: do not mutate it concurrently with a dump.
  WaitHistogram& Histogram(const std::string& name);

  // Per-pass time series: counters and gauges are last-pass snapshots;
  // AppendSeries records one point per pass under `name` so controllers and
  // heatmaps can look at the trend instead of the final value.
  void AppendSeries(const std::string& name, double value);

  u64 Counter(const std::string& name) const;        // 0 when absent
  double Gauge(const std::string& name) const;       // 0.0 when absent
  bool HasHistogram(const std::string& name) const;
  // Copy of the series registered under `name` (empty when absent).
  std::vector<double> SeriesCopy(const std::string& name) const;
  // Back-compat pointer form; invalidated by the next mutation. Prefer
  // SeriesCopy for anything that outlives the calling statement.
  const std::vector<double>* Series(const std::string& name) const;

  // Consistent snapshots of each section (for exposition renderers that
  // iterate instead of probing by name).
  std::map<std::string, u64> CountersSnapshot() const;
  std::map<std::string, double> GaugesSnapshot() const;
  std::map<std::string, WaitHistogram> HistogramsSnapshot() const;
  std::map<std::string, std::vector<double>> SeriesSnapshot() const;

  // {"counters":{...},"gauges":{...},"histograms":{name:{counts:[...],
  //  total_seconds,max_seconds,count,p50,p90,p99}},"series":{name:[...]}}
  // — keys sorted, so the dump is byte-stable for identical contents.
  std::string ToJson() const;
  Status DumpJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, u64> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, WaitHistogram> histograms_;
  std::map<std::string, std::vector<double>> series_;
};

}  // namespace orion

#endif  // ORION_SRC_COMMON_METRICS_REGISTRY_H_
