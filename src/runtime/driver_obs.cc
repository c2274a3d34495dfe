// Driver observability: the merged trace timeline, the live monitor and
// metrics endpoint, the serving tier's per-pass publish and quiesce, and the
// ExportMetrics flattening.
#include "src/runtime/driver.h"

#include "src/common/buffer_pool.h"
#include "src/common/flight_recorder.h"

namespace orion {

const std::vector<trace::Span>& Driver::CollectTrace() {
  // Scoop up everything not yet shipped: the master's own threads (driver,
  // ParamServer pool, sender lanes) and any worker spans left in their rings
  // (e.g. recorded after the last PassDone or at halt). Draining removes
  // spans from the rings, so repeated collection never duplicates.
  std::vector<trace::Span> rest = trace::DrainAll();
  cluster_trace_.insert(cluster_trace_.end(), std::make_move_iterator(rest.begin()),
                        std::make_move_iterator(rest.end()));
  return cluster_trace_;
}

Status Driver::DumpTrace(const std::string& path) {
  return trace::WriteChromeTrace(path, CollectTrace());
}

std::string Driver::CriticalPathReport() {
  std::string out =
      trace::FormatCriticalPathTable(trace::AnalyzeCriticalPath(CollectTrace()));
  out += straggler_.Verdict();
  out += "\n";
  return out;
}

Status Driver::EnableMonitor(double period_seconds) {
  if (monitor_ != nullptr) {
    return monitor_->running() ? Status::Ok() : monitor_->Start();
  }
  obs::Monitor::Options opt;
  opt.period_seconds = period_seconds;
  monitor_ = std::make_unique<obs::Monitor>(opt);
  RegisterMonitorProbes();
  PublishObsSnapshot();
  return monitor_->Start();
}

void Driver::StopMonitor() {
  if (monitor_ != nullptr) {
    monitor_->Stop();
  }
}

StatusOr<int> Driver::StartMetricsEndpoint(int port) {
  ORION_RETURN_IF_ERROR(EnableMonitor());
  if (endpoint_ != nullptr && endpoint_->port() > 0) {
    return endpoint_->port();
  }
  endpoint_ = std::make_unique<obs::MetricsEndpoint>(monitor_.get());
  return endpoint_->Start(port);
}

void Driver::StopMetricsEndpoint() {
  if (endpoint_ != nullptr) {
    endpoint_->Stop();
  }
}

Status Driver::DumpBlackBox(const std::string& path) {
  return fr::DumpToFile(path, "explicit");
}

void Driver::RegisterMonitorProbes() {
  // Every closure below reads an atomic or takes a short uncontended mutex,
  // and captures only objects whose addresses outlive the monitor: fabric_,
  // param_server_, the stable gauge/watermark arrays, and ArrayHost masters
  // (arrays_ holds them by unique_ptr). Never an Executor — rejoin replaces
  // those.
  Fabric* fabric = fabric_.get();
  monitor_->RegisterProbe("fabric.inbox.master", [fabric] {
    return static_cast<double>(fabric->InboxDepth(kMasterRank));
  });
  for (int w = 0; w < config_.num_workers; ++w) {
    const std::string suffix = ".w" + std::to_string(w);
    monitor_->RegisterProbe("fabric.inbox" + suffix, [fabric, w] {
      return static_cast<double>(fabric->InboxDepth(w));
    });
    std::atomic<int>* ring = ring_fill_gauges_[static_cast<size_t>(w)].get();
    monitor_->RegisterProbe("prefetch.ring_fill" + suffix, [ring] {
      return static_cast<double>(ring->load(std::memory_order_relaxed));
    });
    RankLive* rl = rank_live_[static_cast<size_t>(w)].get();
    monitor_->RegisterProbe("rank" + suffix + ".started", [rl] {
      return static_cast<double>(rl->started.load(std::memory_order_relaxed));
    });
    monitor_->RegisterProbe("rank" + suffix + ".completed", [rl] {
      return static_cast<double>(rl->completed.load(std::memory_order_relaxed));
    });
    monitor_->RegisterProbe("rank" + suffix + ".step", [rl] {
      return static_cast<double>(rl->step.load(std::memory_order_relaxed));
    });
  }
  if (param_server_ != nullptr) {
    ParamServer* ps = param_server_.get();
    monitor_->RegisterProbe("param.in_flight",
                            [ps] { return static_cast<double>(ps->in_flight()); });
    monitor_->RegisterProbe("param.reply_queue", [ps] {
      return static_cast<double>(ps->reply_queue_depth());
    });
  }
  // Pinned-snapshot counts for arrays that exist now; arrays created after
  // EnableMonitor are not probed (probes are fixed at Start).
  for (const auto& [id, host] : arrays_) {
    (void)id;
    const VersionedCellStore* master = &host->master;
    monitor_->RegisterProbe("versioned.pins." + host->meta.name, [master] {
      return static_cast<double>(master->live_pins());
    });
  }
  monitor_->RegisterProbe("bufferpool.pooled_bytes", [] {
    return static_cast<double>(BufferPool::AggregateStats().pooled_bytes_high_water);
  });
  // Serving-tier admission gauges. The tier may start/stop after the
  // monitor, so the probes go through an atomic pointer that is null while
  // no tier serves (stopped tiers retire without freeing, so a stale load
  // still dereferences a live object).
  std::atomic<serve::ServingTier*>* tier = &serving_tier_live_;
  monitor_->RegisterProbe("serve.queue_depth", [tier] {
    serve::ServingTier* t = tier->load(std::memory_order_acquire);
    return t != nullptr ? static_cast<double>(t->queue_depth()) : 0.0;
  });
  monitor_->RegisterProbe("serve.inflight_bytes", [tier] {
    serve::ServingTier* t = tier->load(std::memory_order_acquire);
    return t != nullptr ? static_cast<double>(t->inflight_bytes()) : 0.0;
  });
}

void Driver::PublishObsSnapshot() {
  if (monitor_ == nullptr) {
    return;
  }
  monitor_->PublishRegistry(std::make_shared<const MetricsRegistry>(ExportMetrics()));
}

// ---------------------------------------------------------------------------
// Online snapshot-serving tier

StatusOr<serve::ServingTier*> Driver::StartServingTier(std::vector<DistArrayId> arrays,
                                                       serve::ServingTierOptions options) {
  if (!config_.async_param_serving) {
    return Status::FailedPrecondition(
        "serving tier requires async_param_serving (snapshot pins)");
  }
  if (serving_tier_ != nullptr) {
    return Status::FailedPrecondition("serving tier already started");
  }
  if (arrays.empty()) {
    return Status::InvalidArgument("no arrays to serve");
  }
  std::vector<serve::ServingTier::ArraySpec> specs;
  specs.reserve(arrays.size());
  for (DistArrayId id : arrays) {
    const ArrayHost& h = Host(id);  // CHECKs the id exists
    specs.push_back({id, h.meta.name, h.meta.value_dim});
  }
  serve_arrays_ = std::move(arrays);
  serving_tier_ = std::make_unique<serve::ServingTier>(std::move(specs), options);
  serve_last_keys_ = 0;
  serve_qps_mark_ = std::chrono::steady_clock::now();
  // First versions go live immediately; the one-pass staleness bound starts
  // counting from here.
  PublishServingVersions();
  serving_tier_live_.store(serving_tier_.get(), std::memory_order_release);
  return serving_tier_.get();
}

void Driver::StopServingTier() {
  if (serving_tier_ == nullptr) {
    return;
  }
  serving_tier_live_.store(nullptr, std::memory_order_release);
  serving_tier_->Stop();
  // Keep the stopped tier alive until the Driver dies: monitor probes or
  // clients may still hold the raw pointer, and a stopped tier answers them
  // harmlessly (kShutdown / zero gauges).
  retired_tiers_.push_back(std::move(serving_tier_));
  serve_arrays_.clear();
  serve_dirty_pages_.clear();
}

void Driver::PublishServingVersions() {
  if (serving_tier_ == nullptr) {
    return;
  }
  ++serve_publish_round_;
  for (DistArrayId id : serve_arrays_) {
    ArrayHost& h = Host(id);
    // Publish only when the master copy is authoritative at this boundary.
    // Server-hosted and replicated arrays always are (writes flow through
    // the master); rotated (kSpaceTime) arrays are whenever their partitions
    // came home at the boundary (wavefront loops return them every pass;
    // unordered rotation keeps them worker-resident). Space-partitioned
    // kRange arrays never rotate home, so they are skipped until something
    // else gathers them. A skipped array keeps serving its previous
    // published version (or none) — still a consistent snapshot, just
    // older. Never gather here: pulling partitions off workers at publish
    // time would change fabric traffic and break the bit-for-bit
    // serving-on/off identity.
    if (h.on_workers && h.placement.scheme != PartitionScheme::kServer &&
        h.placement.scheme != PartitionScheme::kReplicated) {
      continue;
    }
    if (!h.master.paged()) {
      h.master.BeginServing();
    }
    VersionedCellStore::Published pub = h.master.PublishVersion();
    const double dirty = static_cast<double>(pub.dirty_pages.size());
    serve_dirty_pages_[h.meta.name] = dirty;
    metrics_series_["versioned.dirty_pages." + h.meta.name].push_back(dirty);
    serving_tier_->Publish(id, std::move(pub.snap), serve_publish_round_);
  }
  // Interval QPS across the window since the previous publish, from the
  // tier's cumulative key counter.
  const auto now = std::chrono::steady_clock::now();
  const serve::ServingStats ss = serving_tier_->StatsSnapshot();
  const double dt = std::chrono::duration<double>(now - serve_qps_mark_).count();
  if (dt > 0.0) {
    serve_last_qps_ =
        static_cast<double>(ss.keys_looked_up - serve_last_keys_) / dt;
  }
  serve_last_keys_ = ss.keys_looked_up;
  serve_qps_mark_ = now;
  metrics_series_["serve.qps"].push_back(serve_last_qps_);
  const WaitHistogram lat = serving_tier_->LatencySnapshot();
  metrics_series_["serve.p99_seconds"].push_back(lat.ApproxPercentile(0.99));
}

void Driver::QuiesceServingFor(DistArrayId id) {
  if (serving_tier_ == nullptr) {
    return;
  }
  serving_tier_->QuiesceForCollapse(id);
}

void Driver::QuiesceServingAll() {
  if (serving_tier_ == nullptr) {
    return;
  }
  for (DistArrayId id : serve_arrays_) {
    serving_tier_->QuiesceForCollapse(id);
  }
}

MetricsRegistry Driver::ExportMetrics() const {
  MetricsRegistry reg;
  const LoopMetrics& lm = last_metrics_;
  lm.ExportTo(&reg);
  reg.SetGauge("spec.enabled", lm.spec_depth_effective > 0 ? 1.0 : 0.0);
  WaitHistogram& reply_wait = reg.Histogram("pass.reply_wait");
  for (const WaitHistogram& h : lm.worker_reply_wait) {
    reply_wait.Merge(h);
  }

  const FabricStats fs = fabric_->Stats();
  reg.SetCounter("net.bytes_sent", fs.bytes_sent);
  reg.SetCounter("net.messages_sent", fs.messages_sent);
  reg.SetCounter("net.zero_copy_bytes", fs.zero_copy_bytes);
  reg.SetGauge("net.virtual_seconds", fs.virtual_net_seconds);

  runtime_metrics().ExportTo(&reg);

  const BufferPool::Stats bp = BufferPool::AggregateStats();
  reg.SetCounter("bufferpool.acquires", bp.acquires);
  reg.SetCounter("bufferpool.hits", bp.hits);
  reg.SetCounter("bufferpool.releases", bp.releases);
  reg.SetCounter("bufferpool.discards", bp.discards);
  reg.SetCounter("bufferpool.pooled_bytes_high_water", bp.pooled_bytes_high_water);
  reg.SetGauge("bufferpool.hit_rate",
               bp.acquires == 0
                   ? 0.0
                   : static_cast<double>(bp.hits) / static_cast<double>(bp.acquires));

  // Serving tier: cumulative request counters, the last publish interval's
  // QPS, and p50/p99 over the merged request-latency histogram.
  if (serving_tier_ != nullptr) {
    const serve::ServingStats ss = serving_tier_->StatsSnapshot();
    reg.SetCounter("serve.requests", ss.requests);
    reg.SetCounter("serve.ok", ss.ok);
    reg.SetCounter("serve.not_serving", ss.not_serving);
    reg.SetCounter("serve.shed_queue_full", ss.shed_queue_full);
    reg.SetCounter("serve.shed_bytes", ss.shed_bytes);
    reg.SetCounter("serve.keys_looked_up", ss.keys_looked_up);
    reg.SetCounter("serve.keys_hit", ss.keys_hit);
    reg.SetCounter("serve.bytes_served", ss.bytes_served);
    reg.SetCounter("serve.batches", ss.batches);
    reg.SetCounter("serve.batched_requests", ss.batched_requests);
    reg.SetCounter("serve.versions_published", ss.versions_published);
    reg.SetGauge("serve.qps", serve_last_qps_);
    const WaitHistogram lat = serving_tier_->LatencySnapshot();
    reg.SetGauge("serve.p50_seconds", lat.ApproxPercentile(0.5));
    reg.SetGauge("serve.p99_seconds", lat.ApproxPercentile(0.99));
    reg.Histogram("serve.latency").Merge(lat);
  }
  // Pages dirtied between the last two serving publishes, per array — the
  // per-version delta a snapshot-shipping replica would fetch.
  for (const auto& [name, pages] : serve_dirty_pages_) {
    reg.SetGauge("versioned.dirty_pages." + name, pages);
  }

  for (const auto& [name, points] : metrics_series_) {
    for (double v : points) {
      reg.AppendSeries(name, v);
    }
  }

  // Straggler verdicts (detection only; 1.0 = currently flagged).
  reg.SetCounter("anomaly.rounds", straggler_.rounds());
  reg.SetCounter("anomaly.flags_total", straggler_.total_flags());
  for (int w = 0; w < config_.num_workers; ++w) {
    reg.SetGauge("anomaly.straggler." + std::to_string(w),
                 straggler_.Flagged(w) ? 1.0 : 0.0);
    reg.SetGauge("anomaly.straggler_lag_ewma." + std::to_string(w),
                 straggler_.LagEwma(w));
  }

  if (monitor_ != nullptr) {
    monitor_->MergeInto(&reg);
  }
  return reg;
}

RuntimeMetrics Driver::runtime_metrics() const {
  RuntimeMetrics m = runtime_metrics_;
  if (injector_ != nullptr) {
    const InjectorStats s = injector_->stats();
    m.faults_dropped = s.dropped;
    m.faults_duplicated = s.duplicated;
    m.faults_delayed = s.delayed;
    m.crashes_triggered = s.crashes_triggered;
  }
  return m;
}

std::vector<FaultEvent> Driver::fault_events() const {
  return injector_ != nullptr ? injector_->events() : std::vector<FaultEvent>{};
}

}  // namespace orion
