#ifndef GTPQ_CLUSTER_SHARD_ROUTER_H_
#define GTPQ_CLUSTER_SHARD_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partition_map.h"
#include "common/per_thread.h"
#include "common/status.h"
#include "net/client.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "reachability/boundary_overlay.h"
#include "reachability/reachability_index.h"

namespace gtpq {
namespace cluster {

struct ShardRouterOptions {
  /// Per-shard "host:port" endpoints; empty uses the ones baked into the
  /// map, otherwise must be sized num_shards.
  std::vector<std::string> endpoints;
  net::WireLimits limits;
  /// Health prober cadence (HEALTH round trip to every shard); <= 0
  /// disables the prober thread entirely.
  int health_interval_ms = 500;
  /// Consecutive failed probes before a shard's gtpq_shard_healthy
  /// gauge drops to 0. One flake (a lost race with a restart) should
  /// not flap the gauge the failover seam will eventually key off.
  int health_failure_threshold = 2;
};

/// Scatter-gather reachability over a cluster of `gteactl serve`
/// processes, one per contiguous vertex shard of a PartitionMap.
///
/// The router replicates only the map's boundary overlay
/// (reachability/boundary_overlay.h); per-shard labelings live in the
/// shard processes and are consulted through pipelined gtpq-wire PROBE
/// frames. Reaches(u, v) mirrors ShardedOracle exactly; only the
/// transport differs:
///
///  * same shard — one forward probe answers "u reaches v intra-shard"
///    and "u reaches each shard boundary" in a single round trip
///    (ids = [v, boundaries...]), pipelined with the reverse entry
///    probe on the same connection;
///  * cross shard — a forward probe on u's shard (exits) and a reverse
///    probe on v's shard (entries) fly concurrently on two
///    connections, then exits x entries are folded through the
///    replicated overlay with zero further wire traffic.
///
/// Wire failures cannot be reported through the bool probe interface,
/// so a failed probe logs a warning, drops the connection (the next
/// call reconnects), and answers false.
///
/// Updates: SupportsNativeUpdates() is true, so the serving layer's
/// SharedEngineFactory routes APPLY_UPDATES here instead of wrapping
/// the router in a delta overlay. ApplyNativeUpdate applies the batch
/// on the owning shard, re-probes that shard's boundary-to-boundary
/// contribution, publishes a successor overlay, and then commits an
/// epoch barrier: every other shard receives one empty batch so all
/// shard epochs advance in lockstep and no later probe can observe
/// mixed shard epochs. Batches that would change the partition
/// structure (node additions, cross-shard edges, boundary-vertex
/// removals, multi-shard batches) are rejected with FailedPrecondition
/// before any shard is touched.
///
/// Thread safety: probes may run concurrently from any thread
/// (connections are per-thread, the overlay swap is a locked
/// shared_ptr exchange); ApplyNativeUpdate serializes against itself
/// and must not run concurrently with probes that require a stable
/// epoch — the serving layer's serial update dispatcher provides
/// exactly that barrier.
class ShardRouter : public ReachabilityOracle,
                    public obs::ClusterObservable {
 public:
  /// Validates endpoints, connects to every shard once (bounded
  /// ECONNREFUSED backoff, so a cluster can come up in any order), and
  /// checks each server's HELLO against the map: graph_nodes must equal
  /// the shard's range size. Fails without a usable router on any
  /// mismatch. On success the health prober thread starts (unless
  /// disabled via options).
  static Result<std::unique_ptr<ShardRouter>> Connect(
      PartitionMap map, ShardRouterOptions options = {});
  ~ShardRouter() override;

  std::string_view name() const override { return name_; }
  bool Reaches(NodeId from, NodeId to) const override;

  bool SupportsNativeUpdates() const override { return true; }
  Status ApplyNativeUpdate(const UpdateBatch& batch) const override;

  /// obs::ClusterObservable — the net tier discovers these by
  /// dynamic_cast on the serving oracle and fans OBSERVE out through
  /// them. Scrapes use bounded connect retries so a dead shard delays
  /// the export by at most one short backoff instead of the full probe
  /// reconnect budget.
  Result<obs::MetricsSnapshot> FederatedMetricsSnapshot() const override;
  Result<std::vector<obs::ProcessSpans>> CollectClusterSpans(
      uint64_t trace_id) const override;

  size_t num_shards() const { return map_.num_shards(); }
  const PartitionMap& map() const { return map_; }
  /// Last epoch each shard committed (HELLO at connect, then every
  /// routed update).
  std::vector<uint64_t> shard_epochs() const;
  /// Prober verdict per shard (true until health_failure_threshold
  /// consecutive HEALTH round trips fail). Mirrors the
  /// gtpq_shard_healthy{shard="N"} gauges.
  std::vector<bool> shard_health() const;
  /// Runs one synchronous health sweep over every shard — the prober
  /// thread's body, exposed so tests can step it deterministically.
  void ProbeHealthOnce() const;

 private:
  ShardRouter(PartitionMap map, ShardRouterOptions options);

  /// The calling thread's connection to `shard`, connecting (and
  /// HELLO-validating) on first use; nullptr after a warning when the
  /// shard is unreachable or serves the wrong graph. `attempts` bounds
  /// the ECONNREFUSED backoff of a fresh connect (probes use the
  /// default long budget to ride out restarts; the health prober and
  /// federation scrapes pass 1–2 so a dead shard cannot stall them).
  net::NetClient* Client(size_t shard) const;
  net::NetClient* Client(size_t shard, int attempts) const;
  /// Drops the calling thread's connection to `shard` after a wire
  /// error so the next probe reconnects.
  void DropClient(size_t shard) const;
  NodeId LocalId(NodeId v, size_t shard) const {
    return v - static_cast<NodeId>(map_.ranges[shard].begin);
  }
  std::pair<uint32_t, uint32_t> BoundaryIds(const BoundaryOverlay& overlay,
                                            size_t shard) const {
    return overlay.IdRange(map_.ranges[shard].begin, map_.ranges[shard].end);
  }
  Result<bool> ProbeCluster(NodeId from, NodeId to, size_t su,
                            size_t sv) const;
  /// Counts one answered PROBE to `shard` sent at `start_us` in the
  /// shard's probe counter and latency histogram; returns its duration.
  double RecordProbe(size_t shard, double start_us) const;
  std::shared_ptr<const BoundaryOverlay> overlay() const;
  void StartProber();
  void ProberLoop();

  PartitionMap map_;
  std::vector<std::string> endpoints_;
  net::WireLimits limits_;
  int health_interval_ms_;
  int health_failure_threshold_;
  std::string name_;

  // Replicated overlay: the map's, then a successor per routed update
  // (updates serialize on update_mutex_; probes pin one snapshot via a
  // locked shared_ptr copy).
  mutable std::mutex update_mutex_;
  mutable std::mutex overlay_mutex_;
  mutable std::shared_ptr<const BoundaryOverlay> overlay_;
  mutable std::mutex epoch_mutex_;
  mutable std::vector<uint64_t> shard_epochs_;

  mutable PerThread<std::vector<std::unique_ptr<net::NetClient>>> clients_;

  // Health prober state: verdicts + consecutive-failure streaks under
  // one mutex (written by the prober thread, read by shard_health()),
  // and the thread's stop plumbing. The prober uses its own PerThread
  // client slots, so it never races probe traffic on a connection.
  mutable std::mutex health_mutex_;
  mutable std::vector<bool> healthy_;
  mutable std::vector<int> health_streak_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
  std::thread prober_;

  // Observability handles (registry-owned, stable pointers; one
  // counter/histogram per shard, labeled shard="N").
  std::vector<obs::Counter*> shard_probes_;
  std::vector<obs::Histogram*> shard_probe_latency_us_;
  std::vector<obs::Gauge*> shard_healthy_;
  std::vector<obs::Counter*> health_failures_;
  obs::Counter* reconnects_ = nullptr;
  obs::Counter* closure_hits_ = nullptr;
};

}  // namespace cluster
}  // namespace gtpq

#endif  // GTPQ_CLUSTER_SHARD_ROUTER_H_
