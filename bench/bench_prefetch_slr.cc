// Sec. 6.3 "Bulk Prefetching": SLR on kdd-like sparse features.
//
// Three ways to serve server-hosted weight reads:
//   per-key  — one request/reply round trip per weight (naive remote random
//              access; the paper's 7682 s/pass data point),
//   bulk     — Orion's synthesized access-recording pass batches all keys
//              into one request per array per sync round (9.2 s),
//   cached   — the recorded key lists are reused across passes (6.3 s).
//
// Paper shape: per-key is orders of magnitude slower; caching the prefetch
// indices shaves the recording pass off bulk prefetching. The recording pass
// runs the loop's compiled prefetch slice, and it is all that separates
// bulk from cached: a gap small enough for the machine's drift between two
// separate runs to flip. The bulk and cached drivers therefore run side by
// side, their timed passes alternating (which one goes first alternates
// too), and the check reads the per-pair ratio bulk / cached: its median,
// its IQR, and how many pairs cached won.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/slr.h"

namespace orion {
namespace {

constexpr int kWorkers = 4;
constexpr int kTimedPasses = 15;

// One SLR training loop in its own driver. The constructor runs one untimed
// pass (cached mode records its key lists there); Pass runs a timed one and
// returns its modeled seconds.
class SlrRun {
 public:
  SlrRun(const std::vector<SparseSample>& data, i64 features, PrefetchMode mode) {
    DriverConfig cfg;
    cfg.num_workers = kWorkers;
    driver_ = std::make_unique<Driver>(cfg);
    SlrConfig slr;
    slr.loop_options.prefetch = mode;
    app_ = std::make_unique<SlrApp>(driver_.get(), slr);
    ORION_CHECK_OK(app_->Init(data, features));
    ORION_CHECK_OK(app_->RunPass());
  }

  double Pass() {
    ORION_CHECK_OK(app_->RunPass());
    return ModeledSeconds(app_->last_metrics(), kWorkers);
  }

 private:
  std::unique_ptr<Driver> driver_;
  std::unique_ptr<SlrApp> app_;
};

int Main() {
  PrintHeader("Sec 6.3 bulk prefetching",
              "SLR (kdd-like): modeled seconds/pass — per-key requests vs "
              "synthesized bulk prefetch vs cached prefetch indices");
  const auto dcfg = KddLike();
  const auto data = GenerateSparseLr(dcfg);

  std::vector<double> per_key_secs;
  {
    SlrRun per_key(data, dcfg.num_features, PrefetchMode::kPerKey);
    for (int p = 0; p < kTimedPasses; ++p) {
      per_key_secs.push_back(per_key.Pass());
    }
  }
  std::vector<double> bulk_secs;
  std::vector<double> cached_secs;
  std::vector<double> ratios;  // bulk / cached, per pair
  int cached_won = 0;
  {
    SlrRun bulk(data, dcfg.num_features, PrefetchMode::kBulk);
    SlrRun cached(data, dcfg.num_features, PrefetchMode::kCached);
    for (int p = 0; p < kTimedPasses; ++p) {
      double b = 0.0;
      double c = 0.0;
      if (p % 2 == 0) {
        b = bulk.Pass();
        c = cached.Pass();
      } else {
        c = cached.Pass();
        b = bulk.Pass();
      }
      bulk_secs.push_back(b);
      cached_secs.push_back(c);
      ratios.push_back(b / c);
      cached_won += c < b ? 1 : 0;
    }
  }
  const Spread per_key = SpreadOf(per_key_secs);
  const Spread bulk = SpreadOf(bulk_secs);
  const Spread cached = SpreadOf(cached_secs);
  const Spread ratio = SpreadOf(ratios);

  std::printf("mode,median_sec_per_pass,q1,q3 (%d passes each)\n", kTimedPasses);
  std::printf("per_key,%.4f,%.4f,%.4f\n", per_key.median, per_key.q1, per_key.q3);
  std::printf("bulk_prefetch,%.4f,%.4f,%.4f\n", bulk.median, bulk.q1, bulk.q3);
  std::printf("cached_prefetch,%.4f,%.4f,%.4f\n", cached.median, cached.q1, cached.q3);
  std::printf("speedup of medians per_key->bulk: %.0fx\n", per_key.median / bulk.median);
  std::printf("paired bulk/cached ratio: median %.3f, IQR %.3f (q1 %.3f, q3 %.3f); "
              "cached faster in %d of %d pairs\n",
              ratio.median, ratio.q3 - ratio.q1, ratio.q1, ratio.q3, cached_won, kTimedPasses);

  PrintShape("per-key remote access is orders of magnitude slower than bulk (>50x)",
             per_key.median > 50.0 * bulk.median);
  PrintShape("caching prefetch indices further reduces the pass time",
             2 * cached_won > kTimedPasses && ratio.median > 1.0);
  return 0;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
