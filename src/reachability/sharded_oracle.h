#ifndef GTPQ_REACHABILITY_SHARDED_ORACLE_H_
#define GTPQ_REACHABILITY_SHARDED_ORACLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/per_thread.h"
#include "common/status.h"
#include "reachability/boundary_overlay.h"
#include "reachability/reachability_index.h"

namespace gtpq {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Tuning knobs for ShardedOracle.
struct ShardedOracleOptions {
  /// Vertex partitions (clamped to the node count).
  size_t num_shards = 4;
  /// Factory spec of the per-shard sub-index (any MakeReachabilityIndex
  /// spec, decorators included).
  std::string inner_spec = "interval";
  /// Explicit contiguous cut points (num_shards + 1 values: first 0,
  /// last the node count, strictly derived ranges must be monotone).
  /// Empty = equal cuts s * n / num_shards. The cluster partitioner
  /// passes degree-aware cuts here (cluster/partition.h) so the oracle
  /// and the partition map agree on shard assignment.
  std::vector<size_t> custom_starts;
};

/// Partitioned reachability: vertices are split into contiguous-range
/// shards, each carrying an independent sub-index over its induced
/// subgraph; paths that cross shards are answered through a boundary
/// overlay (reachability/boundary_overlay.h). The point is build
/// economics on large graphs — when data changes land in one
/// partition, only that shard's sub-index (plus the small overlay
/// closure) is rebuilt (RebuildShard), instead of relabeling the whole
/// graph.
///
/// Reaches(u, v) holds iff v is intra-shard reachable from u, or the
/// overlay connects an exit of u to an entry of v; the exits and
/// entries are found by point probes on the local sub-indexes. Cycles
/// threading several shards condense into overlay cycles, so the
/// Section-2 semantics (Reaches(v, v) only on a cycle) carry over
/// exactly; the conformance suite checks this decorator against the
/// materialized closure like any base backend.
///
/// Set-reachability uses the pairwise defaults of ReachabilityOracle.
class ShardedOracle : public ReachabilityOracle {
 public:
  ShardedOracle(const Digraph& g, ShardedOracleOptions options = {});

  std::string_view name() const override { return name_; }
  bool Reaches(NodeId from, NodeId to) const override;

  size_t NumShards() const { return num_shards_; }
  size_t ShardOf(NodeId v) const;
  size_t ShardSize(size_t shard) const {
    return shard_start_[shard + 1] - shard_start_[shard];
  }
  size_t NumBoundaryVertices() const { return overlay_.boundary.size(); }
  const ReachabilityOracle& shard_index(size_t shard) const {
    return *sub_[shard];
  }
  /// The cluster partitioner replicates this into the .gtpqmap, so a
  /// router answers cross-shard probes without rebuilding it.
  const BoundaryOverlay& overlay() const { return overlay_; }

  /// Rebuilds one shard's sub-index and the overlay rows it
  /// contributes, leaving every other shard's labeling untouched. `g`
  /// must have the same node count and shard-crossing edges as the
  /// graph the oracle was built from (intra-shard edits only).
  ///
  /// NOT thread-safe with concurrent probes: rebuilding swaps the
  /// shard's sub-index and the overlay closure in place. Quiesce every
  /// reader first (e.g. drain the QueryServer batch, or rebuild into a
  /// fresh oracle and swap the shared_ptr at the serving layer).
  void RebuildShard(const Digraph& g, size_t shard);

  /// Persistence hooks (storage/index_io.h): the body carries the shard
  /// cuts, the boundary overlay block, and one nested sub-index section
  /// per shard, so a load reconstructs the oracle without touching the
  /// graph.
  void SaveBody(storage::Writer* w) const;
  static Result<std::unique_ptr<ShardedOracle>> LoadBody(
      storage::Reader* r);

 private:
  ShardedOracle() = default;

  void BuildShard(const Digraph& g, size_t shard);
  NodeId LocalId(NodeId v, size_t shard) const {
    return v - static_cast<NodeId>(shard_start_[shard]);
  }
  std::pair<uint32_t, uint32_t> BoundaryIds(size_t shard) const {
    return overlay_.IdRange(shard_start_[shard], shard_start_[shard + 1]);
  }

  size_t num_shards_ = 1;
  std::string inner_spec_;
  std::string name_;
  std::vector<size_t> shard_start_;  // size num_shards_+1, last = n
  std::vector<std::unique_ptr<ReachabilityOracle>> sub_;
  BoundaryOverlay overlay_;
  // Probe scratch (boundary exit/entry lists), thread-confined so
  // cross-shard probes allocate nothing on the hot path.
  struct ProbeScratch {
    std::vector<uint32_t> exits;
    std::vector<uint32_t> entries;
  };
  PerThread<ProbeScratch> scratch_;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_SHARDED_ORACLE_H_
