// Shared helpers for the experiment-reproduction benchmarks.
//
// Methodology note (single-host simulation): logical workers are threads
// that timeshare this machine's cores, so raw wall-clock does not show
// scaling. Throughput numbers therefore report the *modeled cluster time*
// of a pass: the slowest worker's compute time (the critical path; each
// worker's compute is measured directly) plus a network term derived from
// the actual bytes/messages the pass moved through the fabric, using the
// paper's 40Gbps-Ethernet-class link model. Convergence-per-iteration
// results are exact (they do not depend on timing at all).
#ifndef ORION_BENCH_BENCH_UTIL_H_
#define ORION_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/datagen.h"
#include "src/runtime/metrics.h"

namespace orion {

struct LinkModel {
  double bandwidth_bps = 40e9;   // 40Gbps Ethernet (paper cluster)
  double latency_s = 20e-6;      // per-message
  double cpu_per_byte = 1.5e-9;  // marshalling cost on the critical path
};

// Communication is pipelined across workers: each worker's link carries
// roughly bytes/num_workers and sends msgs/num_workers messages, overlapped
// with other workers' compute, so the critical path charges the per-worker
// share.
inline double ModeledSeconds(double compute_max, u64 bytes, u64 msgs, int num_workers,
                             const LinkModel& m = LinkModel()) {
  const double per_worker_bytes = static_cast<double>(bytes) / num_workers;
  const double per_worker_msgs = static_cast<double>(msgs) / num_workers;
  return compute_max + per_worker_bytes * 8.0 / m.bandwidth_bps +
         per_worker_msgs * m.latency_s + per_worker_bytes * m.cpu_per_byte;
}

inline double ModeledSeconds(const LoopMetrics& metrics, int num_workers,
                             const LinkModel& m = LinkModel()) {
  return ModeledSeconds(metrics.max_worker_compute_seconds, metrics.bytes_sent,
                        metrics.messages_sent, num_workers, m);
}

// ---- Standard synthetic datasets (scaled-down stand-ins for the paper's) --

// Netflix-like: power-law sparse ratings with planted low-rank structure.
inline RatingsConfig NetflixLike() {
  RatingsConfig d;
  d.rows = 3000;
  d.cols = 2000;
  d.nnz = 300000;
  d.true_rank = 8;
  d.zipf_alpha = 0.6;
  d.seed = 42;
  return d;
}

// NYTimes-like: medium corpus with planted topics.
inline CorpusConfig NyTimesLike() {
  CorpusConfig c;
  c.num_docs = 2000;
  c.vocab = 2500;
  c.true_topics = 20;
  c.doc_length = 60;
  c.seed = 43;
  return c;
}

// ClueWeb-like: larger corpus (scaled).
inline CorpusConfig ClueWebLike() {
  CorpusConfig c;
  c.num_docs = 6000;
  c.vocab = 4000;
  c.true_topics = 20;
  c.doc_length = 60;
  c.seed = 46;
  return c;
}

// KDD-like sparse LR features.
inline SparseLrConfig KddLike() {
  SparseLrConfig d;
  d.num_samples = 20000;
  d.num_features = 50000;
  d.nnz_per_sample = 30;
  d.seed = 44;
  return d;
}

// ---- Output helpers ----

// printf into a std::string — for assembling raw JSON figure values.
inline std::string JsonF(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, args);
  }
  va_end(args);
  return out;
}

// Uniform machine-readable bench output. Every bench emits one
// BENCH_<name>.json of the shape
//
//   {"bench": "<name>", "schema_version": 1, "figures": {...}}
//
// so CI gates and cross-PR tracking address figures as
// .figures.<key>... regardless of which bench produced them. Figure values
// are raw JSON fragments (numbers, bools, or JsonF-built objects/arrays);
// the helper owns only the envelope.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  BenchJson& Figure(const std::string& key, std::string raw_json_value) {
    figures_.emplace_back(key, std::move(raw_json_value));
    return *this;
  }
  BenchJson& Figure(const std::string& key, double v) {
    return Figure(key, JsonF("%.6f", v));
  }
  BenchJson& Figure(const std::string& key, bool v) {
    return Figure(key, std::string(v ? "true" : "false"));
  }

  // Joins raw-JSON elements into a JSON array.
  static std::string Array(const std::vector<std::string>& elems) {
    std::string out = "[";
    for (size_t i = 0; i < elems.size(); ++i) {
      out += "\n      ";
      out += elems[i];
      if (i + 1 < elems.size()) {
        out += ",";
      }
    }
    out += "\n    ]";
    return out;
  }

  // Writes BENCH_<bench>.json into the working directory (where CI collects
  // artifacts from). Returns false on IO failure.
  bool Write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema_version\": 1,\n  \"figures\": {\n",
                 bench_.c_str());
    for (size_t i = 0; i < figures_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %s%s\n", figures_[i].first.c_str(),
                   figures_[i].second.c_str(), i + 1 < figures_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> figures_;
};

inline void PrintHeader(const std::string& experiment, const std::string& description) {
  std::printf("==== %s ====\n%s\n", experiment.c_str(), description.c_str());
}

inline void PrintShape(const std::string& expected, bool holds) {
  std::printf("PAPER-SHAPE [%s]: %s\n", holds ? "OK" : "MISS", expected.c_str());
}

// Median and quartiles of a sample, e.g. of per-pair ratios between two
// configurations whose timed passes alternate in one process.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return {(v[(n - 1) / 2] + v[n / 2]) / 2.0, v[n / 4], v[(3 * n) / 4]};
}

}  // namespace orion

#endif  // ORION_BENCH_BENCH_UTIL_H_
