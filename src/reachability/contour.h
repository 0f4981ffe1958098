#ifndef GTPQ_REACHABILITY_CONTOUR_H_
#define GTPQ_REACHABILITY_CONTOUR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "reachability/three_hop.h"

namespace gtpq {

/// One per-chain contour entry. `genuine` records that the position is
/// connected to the member set by a path of length >= 1 (an Lin/Lout
/// derived entry, or a self entry inside a cyclic SCC); for non-genuine
/// (pure self) entries `self_member` identifies the single contributing
/// data node, which disambiguates the zero-length corner case of the
/// paper's non-empty-path AD semantics.
struct ContourEntry {
  uint32_t sid = 0;
  bool genuine = false;
  NodeId self_member = kInvalidNode;
};

/// A predecessor or successor contour: chain id -> extreme entry
/// (maximum sid for predecessor contours, minimum for successor ones).
/// This is the merged, duplicate-free complete list of Section 4.2.1.
///
/// Chain ids of the chain cover are dense, so the contour is an array
/// indexed by chain id; a slot holding kAbsentSid is an absent chain.
class Contour {
 public:
  static constexpr uint32_t kAbsentSid = UINT32_MAX;

  Contour() = default;
  /// An empty contour over chain ids [0, num_chains).
  explicit Contour(size_t num_chains)
      : entries_(num_chains, ContourEntry{kAbsentSid, false, kInvalidNode}) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Finds the entry for a chain; nullptr when absent.
  const ContourEntry* Find(uint32_t cid) const {
    if (cid >= entries_.size() || entries_[cid].sid == kAbsentSid) {
      return nullptr;
    }
    return &entries_[cid];
  }

  /// Keeps the larger-sid entry (predecessor contours). `cid` must be
  /// below the chain count the contour was built for.
  void UpdateMax(uint32_t cid, const ContourEntry& e) { Update(cid, e, true); }
  /// Keeps the smaller-sid entry (successor contours).
  void UpdateMin(uint32_t cid, const ContourEntry& e) {
    Update(cid, e, false);
  }

 private:
  void Update(uint32_t cid, const ContourEntry& e, bool keep_max);

  std::vector<ContourEntry> entries_;
  size_t size_ = 0;
};

/// Procedure 2 (MergePredLists): merges the complete predecessor lists
/// of `members` into a predecessor contour. Each chain segment of Lin
/// lists is walked at most once thanks to the `visited` bookkeeping.
Contour MergePredLists(const ThreeHopIndex& idx,
                       std::span<const NodeId> members);

/// Dual of Procedure 2: merges complete successor lists into a
/// successor contour.
Contour MergeSuccLists(const ThreeHopIndex& idx,
                       std::span<const NodeId> members);

/// Proposition 7, first half: does data node v reach (non-empty path)
/// at least one member of the set summarized by predecessor contour cp?
bool NodeReachesContour(const ThreeHopIndex& idx, NodeId v,
                        const Contour& cp);

/// Proposition 7, second half: does some member of the set summarized
/// by successor contour cs reach data node v?
bool ContourReachesNode(const ThreeHopIndex& idx, const Contour& cs,
                        NodeId v);

/// Single-probe building blocks, exposed so the pruning procedures can
/// share one chain walk across several contours (Procedure 6/7).
///
/// Tests probe position x — an entry of v's complete successor list, or
/// v's own position with x_genuine = v-on-cycle — against a predecessor
/// contour: true iff a pair (x, y) with x <=c y certifies a non-empty
/// path from v into the member set.
bool ProbePredecessorContour(const Contour& cp, const ChainPos& x,
                             bool x_genuine, NodeId v);

/// Dual: probe y from v's complete predecessor list against a successor
/// contour (pair (x, y) with x <=c y, x in the contour).
bool ProbeSuccessorContour(const Contour& cs, const ChainPos& y,
                           bool y_genuine, NodeId v);

/// The contour-accelerated 3-hop backend — the paper's full GTEA
/// configuration. Point queries are inherited from ThreeHopIndex; the
/// set-reachability API is overridden with the merged-contour
/// procedures of Section 4.2.1:
///
///  * target/source sets are summarized into predecessor/successor
///    contours (Procedure 2);
///  * batched downward probes group sources per chain (descending sid)
///    and share one Lout-segment walk across all target sets, with
///    positive valuations inherited down-chain (Procedure 6);
///  * batched upward probes scan targets per chain in ascending sid
///    with the early break — after the first reachable node all larger
///    ones are — and walk each Lin segment at most once (Procedure 7);
///  * successor scans probe a per-source singleton contour against
///    chain-grouped targets with the same ascending scan as the upward
///    batch (the Section 4.3 matching-graph scan).
///
/// Sources and targets are grouped per chain by one sort on (cid, sid,
/// node), so probe order, and with it every counter, is independent of
/// the input order. Summaries are immutable once built and live as long
/// as the query step that made them.
///
/// The plain `three_hop` backend answers the same operations through
/// the pairwise defaults; comparing the two isolates the contour
/// machinery's #index savings.
class ContourIndex : public ThreeHopIndex {
 public:
  static ContourIndex Build(const Digraph& g) {
    return ContourIndex(ThreeHopIndex::Build(g));
  }
  explicit ContourIndex(ThreeHopIndex base)
      : ThreeHopIndex(std::move(base)) {}

  std::string_view name() const override { return "contour"; }

  std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const NodeId> members) const override;
  std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const NodeId> members) const override;
  bool ReachesSet(NodeId from, const SetSummary& targets) const override;
  bool SetReaches(const SetSummary& sources, NodeId to) const override;
  void ReachesSetsBatch(std::span<const NodeId> sources,
                        std::span<const SetSummary* const> target_sets,
                        std::vector<std::vector<char>>* out) const override;
  void SetReachesBatch(const SetSummary& sources,
                       std::span<const NodeId> targets,
                       std::vector<char>* out) const override;
  std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const NodeId> targets) const override;
  void SuccessorsAmong(NodeId from, const SetSummary& targets,
                       std::vector<uint32_t>* out) const override;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_CONTOUR_H_
