#ifndef GTPQ_REACHABILITY_BOUNDARY_OVERLAY_H_
#define GTPQ_REACHABILITY_BOUNDARY_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/digraph.h"
#include "reachability/transitive_closure.h"

namespace gtpq {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// The cross-shard half of a contiguous-range vertex partition, shared
/// by the `sharded:` oracle, the `.gtpqmap` partition map and the
/// cluster router. u reaches v across shards iff the closure connects
/// some exit of u (a boundary of u's shard that u reaches intra-shard,
/// or u itself) to some entry of v. Callers answer the intra-shard hops
/// with their own transport (local sub-indexes, or PROBE frames to shard
/// servers), then use CollectPorts and Connects. Copies share the
/// immutable closure. The fields are set verbatim; Validate checks them.
struct BoundaryOverlay {
  static constexpr uint32_t kNotBoundary = static_cast<uint32_t>(-1);
  using IdPairs = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Endpoints of shard-crossing edges, ascending. A boundary id indexes
  /// it; one shard's ids form one run (IdRange).
  std::vector<NodeId> boundary;
  /// The shard-crossing edges (global ids).
  std::vector<std::pair<NodeId, NodeId>> cross_edges;
  /// Per shard, the boundary-id pairs (b, b') with b' intra-shard
  /// reachable from b. The diagonal (b on an intra-shard cycle) becomes
  /// an overlay self-loop, which keeps Reaches(v, v) true only on a
  /// cycle.
  std::vector<IdPairs> contributions;
  /// Over boundary ids, of cross edges + all contributions (Close()).
  std::shared_ptr<const TransitiveClosure> closure;

  /// Boundary and cross edges of finalized `g` cut at `starts` (S + 1
  /// monotone cut points, first 0, last n); S empty contributions and
  /// no closure until Close().
  static BoundaryOverlay Derive(const Digraph& g,
                                std::span<const size_t> starts);

  /// Boundary id of `v`, or kNotBoundary.
  uint32_t IdOf(NodeId v) const;
  /// [first, last) boundary ids of the vertices in [begin, end).
  std::pair<uint32_t, uint32_t> IdRange(uint64_t begin, uint64_t end) const;
  /// (Re)builds the closure from the cross edges and contributions.
  void Close();

  /// Fills `out` with the ports of `v` among the boundary ids `ids` of
  /// its shard: v itself (a zero-length hop) and every b with linked(b).
  template <typename Linked>
  void CollectPorts(std::pair<uint32_t, uint32_t> ids, NodeId v,
                    const Linked& linked, std::vector<uint32_t>* out) const {
    out->clear();
    for (uint32_t b = ids.first; b < ids.second; ++b) {
      if (boundary[b] == v || linked(b)) out->push_back(b);
    }
  }
  /// The exits x entries fold through the closure.
  bool Connects(std::span<const uint32_t> exits,
                std::span<const uint32_t> entries) const;

  /// The block `.gtpqmap` and the `sharded:` section of `.gtpqidx`
  /// embed (pod_align): vec boundary, vec cross edges (interleaved u32),
  /// S x vec contribution (interleaved u32), closure body. S (bounded
  /// by the caller) and n belong to the enclosing format. Load validates.
  void Save(storage::Writer* w) const;
  static Result<BoundaryOverlay> Load(storage::Reader* r, size_t num_shards,
                                      uint64_t num_nodes);

  /// S contributions; boundary strictly ascending and below num_nodes;
  /// cross-edge endpoints on the boundary; contribution ids in range; a
  /// closure spanning exactly the boundary.
  Status Validate(size_t num_shards, uint64_t num_nodes) const;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_BOUNDARY_OVERLAY_H_
