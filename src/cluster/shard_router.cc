#include "cluster/shard_router.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "dynamic/graph_delta.h"
#include "obs/trace.h"

namespace gtpq {
namespace cluster {

ShardRouter::ShardRouter(PartitionMap map, ShardRouterOptions options)
    : map_(std::move(map)),
      endpoints_(options.endpoints.empty() ? map_.endpoints
                                           : std::move(options.endpoints)),
      limits_(options.limits),
      health_interval_ms_(options.health_interval_ms),
      health_failure_threshold_(options.health_failure_threshold),
      name_("cluster:" + map_.inner_spec) {
  overlay_ = std::make_shared<const BoundaryOverlay>(map_.overlay);
  shard_epochs_.assign(map_.num_shards(), 0);

  obs::Registry& reg = obs::Registry::Global();
  shard_probes_.reserve(map_.num_shards());
  shard_probe_latency_us_.reserve(map_.num_shards());
  shard_healthy_.reserve(map_.num_shards());
  health_failures_.reserve(map_.num_shards());
  for (size_t s = 0; s < map_.num_shards(); ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    shard_probes_.push_back(
        reg.GetCounter("gtpq_shard_probes_total" + label));
    shard_probe_latency_us_.push_back(
        reg.GetHistogram("gtpq_shard_probe_latency_us" + label));
    shard_healthy_.push_back(reg.GetGauge("gtpq_shard_healthy" + label));
    health_failures_.push_back(
        reg.GetCounter("gtpq_shard_health_failures_total" + label));
    // Connect() refuses to hand out a router before every shard
    // answered HELLO, so shards start healthy; the prober demotes them.
    shard_healthy_.back()->Set(1);
  }
  healthy_.assign(map_.num_shards(), true);
  health_streak_.assign(map_.num_shards(), 0);
  reconnects_ = reg.GetCounter("gtpq_shard_reconnects_total");
  closure_hits_ = reg.GetCounter("gtpq_overlay_closure_hits_total");
}

ShardRouter::~ShardRouter() {
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Connect(
    PartitionMap map, ShardRouterOptions options) {
  GTPQ_RETURN_NOT_OK(map.Validate());
  if (!options.endpoints.empty() &&
      options.endpoints.size() != map.num_shards()) {
    return Status::InvalidArgument(
        "router got " + std::to_string(options.endpoints.size()) +
        " endpoints for " + std::to_string(map.num_shards()) + " shards");
  }
  auto router = std::unique_ptr<ShardRouter>(
      new ShardRouter(std::move(map), std::move(options)));
  for (size_t s = 0; s < router->num_shards(); ++s) {
    net::NetClient* client = router->Client(s);
    if (client == nullptr) {
      return Status::Internal(
          "cannot bring up shard " + std::to_string(s) + " at " +
          router->endpoints_[s] + " (see preceding warning)");
    }
    std::lock_guard<std::mutex> lock(router->epoch_mutex_);
    router->shard_epochs_[s] = client->server_info().epoch;
  }
  router->StartProber();
  return router;
}

net::NetClient* ShardRouter::Client(size_t shard) const {
  return Client(shard, /*attempts=*/50);
}

net::NetClient* ShardRouter::Client(size_t shard, int attempts) const {
  auto& slots = clients_.Local();
  if (slots.size() != num_shards()) slots.resize(num_shards());
  if (slots[shard] != nullptr && slots[shard]->connected()) {
    return slots[shard].get();
  }
  std::string host;
  uint16_t port = 0;
  if (!net::ParseHostPort(endpoints_[shard], &host, &port)) {
    GTPQ_LOG(Warning) << "shard " << shard << " endpoint is not host:port: "
                      << endpoints_[shard];
    return nullptr;
  }
  auto client = std::make_unique<net::NetClient>();
  const Status status = net::ConnectWithRetry(client.get(), host, port,
                                              limits_, attempts);
  if (!status.ok()) {
    GTPQ_LOG(Warning) << "shard " << shard << " at " << endpoints_[shard]
                      << " unreachable: " << status.ToString();
    return nullptr;
  }
  const uint64_t expect =
      map_.ranges[shard].end - map_.ranges[shard].begin;
  if (client->server_info().graph_nodes != expect) {
    GTPQ_LOG(Warning) << "shard " << shard << " at " << endpoints_[shard]
                      << " serves " << client->server_info().graph_nodes
                      << " nodes, map expects " << expect
                      << " — wrong shard behind this endpoint?";
    return nullptr;
  }
  slots[shard] = std::move(client);
  return slots[shard].get();
}

void ShardRouter::DropClient(size_t shard) const {
  auto& slots = clients_.Local();
  if (shard < slots.size() && slots[shard] != nullptr) {
    // Every drop forces the next probe on this thread to reconnect.
    reconnects_->Add();
    slots[shard].reset();
  }
}

std::shared_ptr<const BoundaryOverlay> ShardRouter::overlay() const {
  std::lock_guard<std::mutex> lock(overlay_mutex_);
  return overlay_;
}

std::vector<uint64_t> ShardRouter::shard_epochs() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return shard_epochs_;
}

Result<bool> ShardRouter::ProbeCluster(NodeId from, NodeId to, size_t su,
                                       size_t sv) const {
  const bool same = su == sv;
  const std::shared_ptr<const BoundaryOverlay> overlay = this->overlay();
  const std::vector<NodeId>& boundary = overlay->boundary;
  const auto exit_ids = BoundaryIds(*overlay, su);
  const auto entry_ids = BoundaryIds(*overlay, sv);
  // A cross-shard path must leave through an exit of su and arrive
  // through an entry of sv; a shard with no boundary admits neither.
  if (!same && (exit_ids.first == exit_ids.second ||
                entry_ids.first == entry_ids.second)) {
    return false;
  }

  // The ambient trace was installed thread-locally by the query worker
  // (QueryServer::EvaluateOnWorker): probes fanned out on its behalf
  // carry the trace on the wire and record child spans here. Each wire
  // probe gets a PRE-ALLOCATED span id sent as the wire parent, so the
  // shard's server-side "serve probe" span nests under the router's
  // "probe shard=N" span in the stitched cross-process trace.
  const obs::TraceContext trace = obs::CurrentTrace();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const uint64_t fwd_span = trace.active() ? recorder.NewSpanId() : 0;
  const uint64_t rev_span = trace.active() ? recorder.NewSpanId() : 0;

  net::ProbeRequest fwd;
  fwd.reverse = false;
  fwd.pivot = LocalId(from, su);
  fwd.trace = {trace.trace_id, fwd_span};
  if (same) fwd.ids.push_back(LocalId(to, sv));
  for (uint32_t b = exit_ids.first; b < exit_ids.second; ++b) {
    fwd.ids.push_back(LocalId(boundary[b], su));
  }
  net::ProbeRequest rev;
  rev.reverse = true;
  rev.pivot = LocalId(to, sv);
  rev.trace = {trace.trace_id, rev_span};
  for (uint32_t b = entry_ids.first; b < entry_ids.second; ++b) {
    rev.ids.push_back(LocalId(boundary[b], sv));
  }

  net::NetClient* cu = Client(su);
  if (cu == nullptr) return Status::Internal("no connection to shard " +
                                                std::to_string(su));
  net::NetClient* cv = same ? cu : Client(sv);
  if (cv == nullptr) return Status::Internal("no connection to shard " +
                                                std::to_string(sv));

  // Scatter both probes before gathering either: in the cross-shard
  // case they overlap on two connections; in the same-shard case they
  // pipeline back to back on one.
  const double fwd_start_us = obs::NowMicros();
  auto fwd_id = cu->SendProbe(fwd);
  if (!fwd_id.ok()) {
    DropClient(su);
    return fwd_id.status();
  }
  Result<uint64_t> rev_id = 0;
  const bool want_rev = !rev.ids.empty();
  double rev_start_us = 0;
  if (want_rev) {
    rev_start_us = obs::NowMicros();
    rev_id = cv->SendProbe(rev);
    if (!rev_id.ok()) {
      DropClient(sv);
      DropClient(su);  // fwd response now orphaned; start clean
      return rev_id.status();
    }
  }

  auto decode = [](Result<std::string> payload, size_t want,
                   net::ProbeResult* out) -> Status {
    GTPQ_RETURN_NOT_OK(payload.status());
    GTPQ_RETURN_NOT_OK(net::DecodeProbeResult(*payload, out));
    if (out->count != want) {
      return Status::ParseError("probe result count mismatch");
    }
    return Status::OK();
  };
  auto finish_probe = [&trace, this](size_t shard, uint64_t span_id,
                                     double start_us) {
    const double dur_us = RecordProbe(shard, start_us);
    if (trace.active()) {
      obs::TraceRecorder::Global().Record(
          trace.trace_id, span_id, trace.parent_span,
          "probe shard=" + std::to_string(shard), start_us, dur_us);
    }
  };

  net::ProbeResult fr;
  Status status = decode(
      cu->WaitForResponse(*fwd_id, net::FrameType::kProbeResult),
      fwd.ids.size(), &fr);
  if (!status.ok()) {
    DropClient(su);
    if (want_rev) DropClient(sv);
    return status;
  }
  finish_probe(su, fwd_span, fwd_start_us);
  net::ProbeResult rr;
  if (want_rev) {
    status = decode(cv->WaitForResponse(*rev_id, net::FrameType::kProbeResult),
                    rev.ids.size(), &rr);
    if (!status.ok()) {
      DropClient(sv);
      return status;
    }
    finish_probe(sv, rev_span, rev_start_us);
  }

  IndexStats& st = stats();
  st.elements_looked_up += fwd.ids.size() + rev.ids.size();

  const size_t off = same ? 1 : 0;
  if (same && fr.Get(0)) return true;

  std::vector<uint32_t> exits;
  overlay->CollectPorts(
      exit_ids, from,
      [&](uint32_t b) { return fr.Get(off + b - exit_ids.first); }, &exits);
  if (exits.empty()) return false;
  std::vector<uint32_t> entries;
  overlay->CollectPorts(
      entry_ids, to, [&](uint32_t b) { return rr.Get(b - entry_ids.first); },
      &entries);
  if (entries.empty()) return false;
  if (!overlay->Connects(exits, entries)) return false;
  // Answered by the replicated overlay — no further wire traffic.
  closure_hits_->Add();
  return true;
}

double ShardRouter::RecordProbe(size_t shard, double start_us) const {
  const double dur_us = obs::NowMicros() - start_us;
  shard_probes_[shard]->Add();
  shard_probe_latency_us_[shard]->Record(static_cast<uint64_t>(dur_us));
  return dur_us;
}

bool ShardRouter::Reaches(NodeId from, NodeId to) const {
  IndexStats& st = stats();
  ++st.queries;
  const size_t su = map_.ShardOf(from);
  const size_t sv = map_.ShardOf(to);
  if (su >= num_shards() || sv >= num_shards()) return false;
  auto result = ProbeCluster(from, to, su, sv);
  if (!result.ok()) {
    // bool has no error channel; a failed probe is a (loudly logged)
    // miss, and the dropped connection reconnects on the next call.
    GTPQ_LOG(Warning) << "cluster probe " << from << " -> " << to
                      << " failed: " << result.status().ToString();
    return false;
  }
  return *result;
}

namespace {

Status RejectStructural(const std::string& what) {
  return Status::FailedPrecondition(
      "cluster router cannot apply " + what +
      " natively: it would change the partition structure (repartition "
      "with gteactl partition instead)");
}

}  // namespace

Status ShardRouter::ApplyNativeUpdate(const UpdateBatch& batch) const {
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  const std::shared_ptr<const BoundaryOverlay> current = overlay();

  if (!batch.add_nodes.empty()) {
    return RejectStructural("node additions");
  }
  constexpr size_t kNoOwner = static_cast<size_t>(-1);
  size_t owner = kNoOwner;
  auto claim = [&owner](size_t shard) -> Status {
    if (owner == kNoOwner) owner = shard;
    if (owner != shard) {
      return Status::FailedPrecondition(
          "cluster router applies one batch to one owning shard; split "
          "multi-shard batches upstream");
    }
    return Status::OK();
  };
  auto check_edge = [&](const EdgeRef& e) -> Status {
    const size_t sf = map_.ShardOf(e.from);
    const size_t st = map_.ShardOf(e.to);
    if (sf >= num_shards() || st >= num_shards()) {
      return Status::InvalidArgument(
          "update references vertex beyond the partitioned graph (" +
          std::to_string(e.from) + " -> " + std::to_string(e.to) + ")");
    }
    if (sf != st) return RejectStructural("cross-shard edges");
    return claim(sf);
  };
  for (const EdgeRef& e : batch.add_edges) GTPQ_RETURN_NOT_OK(check_edge(e));
  for (const EdgeRef& e : batch.remove_edges) {
    GTPQ_RETURN_NOT_OK(check_edge(e));
  }
  for (const NodeId v : batch.remove_nodes) {
    if (map_.ShardOf(v) >= num_shards()) {
      return Status::InvalidArgument("update removes unknown vertex " +
                                     std::to_string(v));
    }
    if (current->IdOf(v) != BoundaryOverlay::kNotBoundary) {
      return RejectStructural("boundary-vertex removals");
    }
    GTPQ_RETURN_NOT_OK(claim(map_.ShardOf(v)));
  }

  std::vector<uint64_t> epochs(num_shards(), 0);
  const UpdateBatch barrier;  // empty batch: epoch bump, no mutation

  if (owner != kNoOwner) {
    UpdateBatch local;
    const auto local_edge = [&](const EdgeRef& e) {
      return EdgeRef{LocalId(e.from, owner), LocalId(e.to, owner)};
    };
    for (const EdgeRef& e : batch.add_edges) {
      local.add_edges.push_back(local_edge(e));
    }
    for (const EdgeRef& e : batch.remove_edges) {
      local.remove_edges.push_back(local_edge(e));
    }
    for (const NodeId v : batch.remove_nodes) {
      local.remove_nodes.push_back(LocalId(v, owner));
    }

    net::NetClient* client = Client(owner);
    if (client == nullptr) {
      return Status::Internal("owning shard " + std::to_string(owner) +
                                 " is unreachable; nothing applied");
    }
    auto applied = client->ApplyUpdates({&local, 1});
    if (!applied.ok()) {
      DropClient(owner);
      return applied.status();
    }
    epochs[owner] = applied->epoch;

    // The shard's intra-shard reachability changed; re-probe its
    // boundary-to-boundary contribution (pipelined, one probe per exit
    // boundary) and publish the successor overlay before any other
    // shard — or any later query — can observe the new epoch.
    const auto [first, last] = BoundaryIds(*current, owner);
    std::vector<NodeId> locals;
    locals.reserve(last - first);
    for (uint32_t b = first; b < last; ++b) {
      locals.push_back(LocalId(current->boundary[b], owner));
    }
    std::vector<uint64_t> request_ids;
    std::vector<double> start_us;
    request_ids.reserve(locals.size());
    start_us.reserve(locals.size());
    for (const NodeId pivot : locals) {
      net::ProbeRequest request;
      request.reverse = false;
      request.pivot = pivot;
      request.ids = locals;
      start_us.push_back(obs::NowMicros());
      auto id = client->SendProbe(request);
      if (!id.ok()) {
        DropClient(owner);
        return id.status();
      }
      request_ids.push_back(*id);
    }
    BoundaryOverlay::IdPairs contribution;
    for (size_t i = 0; i < locals.size(); ++i) {
      net::ProbeResult result;
      auto payload = client->WaitForResponse(request_ids[i],
                                             net::FrameType::kProbeResult);
      if (!payload.ok()) {
        DropClient(owner);
        return payload.status();
      }
      RecordProbe(owner, start_us[i]);
      GTPQ_RETURN_NOT_OK(net::DecodeProbeResult(*payload, &result));
      if (result.count != locals.size()) {
        return Status::ParseError("contribution probe count mismatch");
      }
      for (size_t j = 0; j < locals.size(); ++j) {
        if (result.Get(j)) {
          contribution.emplace_back(static_cast<uint32_t>(first + i),
                                    static_cast<uint32_t>(first + j));
        }
      }
    }
    auto next = std::make_shared<BoundaryOverlay>(*current);
    next->contributions[owner] = std::move(contribution);
    next->Close();
    std::lock_guard<std::mutex> lock(overlay_mutex_);
    overlay_ = std::move(next);
  }

  // Epoch barrier: every shard that did not apply the batch commits one
  // empty batch, so all shard epochs advance together and a probe can
  // never observe some shards before and some after this update.
  for (size_t s = 0; s < num_shards(); ++s) {
    if (s == owner) continue;
    net::NetClient* client = Client(s);
    if (client == nullptr) {
      return Status::Internal("shard " + std::to_string(s) +
                                 " unreachable during epoch barrier");
    }
    auto applied = client->ApplyUpdates({&barrier, 1});
    if (!applied.ok()) {
      DropClient(s);
      return applied.status();
    }
    epochs[s] = applied->epoch;
  }

  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    shard_epochs_ = epochs;
  }
  const auto [min_it, max_it] =
      std::minmax_element(epochs.begin(), epochs.end());
  if (*min_it != *max_it) {
    GTPQ_LOG(Warning) << "cluster epochs diverged after update (min "
                      << *min_it << ", max " << *max_it
                      << "); did something update a shard directly?";
  }
  return Status::OK();
}

Result<obs::MetricsSnapshot> ShardRouter::FederatedMetricsSnapshot()
    const {
  // Scatter one binary-snapshot request per reachable shard, then
  // gather. A dead shard is skipped — its absence shows up as a missing
  // shard="N" series and a zero gtpq_shard_healthy gauge, which is more
  // useful than an export that errors out whenever one member is down.
  struct Pending {
    size_t shard = 0;
    net::NetClient* client = nullptr;
    uint64_t request_id = 0;
  };
  std::vector<Pending> pending;
  pending.reserve(num_shards());
  for (size_t s = 0; s < num_shards(); ++s) {
    net::NetClient* client = Client(s, /*attempts=*/2);
    if (client == nullptr) continue;
    auto id = client->SendObserve(net::ObserveKind::kMetricsSnapshot);
    if (!id.ok()) {
      DropClient(s);
      continue;
    }
    pending.push_back({s, client, *id});
  }
  std::vector<obs::MemberSnapshot> members;
  members.reserve(pending.size());
  for (const Pending& p : pending) {
    auto payload =
        p.client->WaitForResponse(p.request_id,
                                  net::FrameType::kObserveResult);
    std::string body;
    if (!payload.ok() ||
        !net::DecodeObserveResult(*payload, &body).ok()) {
      DropClient(p.shard);
      continue;
    }
    obs::MetricsSnapshot snapshot;
    const Status decoded = obs::DecodeMetricsSnapshot(body, &snapshot);
    if (!decoded.ok()) {
      GTPQ_LOG(Warning) << "shard " << p.shard
                        << " metrics snapshot rejected: "
                        << decoded.ToString();
      continue;
    }
    members.push_back({std::to_string(p.shard), std::move(snapshot)});
  }
  return obs::BuildFederatedSnapshot(obs::Registry::Global().Snap(),
                                     members);
}

Result<std::vector<obs::ProcessSpans>> ShardRouter::CollectClusterSpans(
    uint64_t trace_id) const {
  std::vector<obs::ProcessSpans> groups;
  groups.reserve(num_shards() + 1);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  groups.push_back({"router", 1,
                    trace_id != 0 ? recorder.SpansForTrace(trace_id)
                                  : recorder.Spans()});
  for (size_t s = 0; s < num_shards(); ++s) {
    net::NetClient* client = Client(s, /*attempts=*/2);
    if (client == nullptr) continue;
    auto payload = client->Observe(net::ObserveKind::kSpans, trace_id);
    if (!payload.ok()) {
      DropClient(s);
      continue;
    }
    std::vector<obs::Span> spans;
    const Status decoded = obs::DecodeSpans(*payload, &spans);
    if (!decoded.ok()) {
      GTPQ_LOG(Warning) << "shard " << s << " span dump rejected: "
                        << decoded.ToString();
      continue;
    }
    groups.push_back({"shard " + std::to_string(s) + " (" +
                          endpoints_[s] + ")",
                      static_cast<uint32_t>(2 + s), std::move(spans)});
  }
  return groups;
}

std::vector<bool> ShardRouter::shard_health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return healthy_;
}

void ShardRouter::ProbeHealthOnce() const {
  for (size_t s = 0; s < num_shards(); ++s) {
    // One connect attempt only: a down shard must cost one refused
    // connect per sweep, not a reconnect backoff budget.
    bool ok = false;
    net::NetClient* client = Client(s, /*attempts=*/1);
    if (client != nullptr) {
      auto health = client->Health();
      if (health.ok() && health->serving != 0) {
        ok = true;
      } else {
        DropClient(s);
      }
    }
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (ok) {
      health_streak_[s] = 0;
      healthy_[s] = true;
      shard_healthy_[s]->Set(1);
    } else {
      health_failures_[s]->Add();
      if (++health_streak_[s] >= health_failure_threshold_) {
        if (healthy_[s]) {
          GTPQ_LOG(Warning) << "shard " << s << " at " << endpoints_[s]
                            << " failed " << health_streak_[s]
                            << " consecutive health probes; marking "
                               "unhealthy";
        }
        healthy_[s] = false;
        shard_healthy_[s]->Set(0);
      }
    }
  }
}

void ShardRouter::StartProber() {
  if (health_interval_ms_ <= 0) return;
  prober_ = std::thread([this] { ProberLoop(); });
}

void ShardRouter::ProberLoop() {
  std::unique_lock<std::mutex> lock(prober_mutex_);
  while (!prober_stop_) {
    lock.unlock();
    ProbeHealthOnce();
    lock.lock();
    prober_cv_.wait_for(lock,
                        std::chrono::milliseconds(health_interval_ms_),
                        [this] { return prober_stop_; });
  }
}

}  // namespace cluster
}  // namespace gtpq
