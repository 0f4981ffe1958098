#include "reachability/contour.h"

#include <algorithm>
#include <memory>

namespace gtpq {

void Contour::Update(uint32_t cid, const ContourEntry& e, bool keep_max) {
  ContourEntry& cur = entries_[cid];
  if (cur.sid == kAbsentSid) {
    cur = e;
    ++size_;
  } else if (keep_max ? e.sid > cur.sid : e.sid < cur.sid) {
    cur = e;
  } else if (e.sid == cur.sid) {
    // Same position contributed twice: genuine wins; two distinct self
    // members imply a multi-node SCC, which is cyclic, hence genuine.
    if (e.genuine || cur.genuine ||
        (cur.self_member != kInvalidNode &&
         e.self_member != kInvalidNode &&
         cur.self_member != e.self_member)) {
      cur.genuine = true;
    }
  }
}

namespace {

// Procedure 2 (kPred) and its dual. A predecessor merge walks each
// member's chain downward through the Lin lists, so a walk starting at
// sid s covers every list at sids <= s; a successor merge walks upward
// through the Lout lists and covers sids >= s. visited[cid] records the
// start that covers the most so far — Procedure 2's `visited`
// bookkeeping, letting members on one chain share the work. A single
// member has nothing to share and skips the array.
template <bool kPred>
Contour MergeLists(const ThreeHopIndex& idx, std::span<const NodeId> members) {
  constexpr uint32_t kNone = UINT32_MAX;
  Contour c(idx.NumChains());
  IndexStats& st = idx.stats();
  std::vector<uint32_t> visited;
  if (members.size() > 1) visited.assign(idx.NumChains(), kNone);
  auto covered = [](uint32_t sid, uint32_t bound) {
    return bound != kNone && (kPred ? sid <= bound : sid >= bound);
  };
  auto list = [&idx](ThreeHopIndex::CondId x) -> const PodArray<ChainPos>& {
    return kPred ? idx.Lin(x) : idx.Lout(x);
  };
  auto next = [&idx](ThreeHopIndex::CondId x) {
    return kPred ? idx.PrevWithLin(x) : idx.NextWithLout(x);
  };
  auto update = [&c](uint32_t cid, const ContourEntry& e) {
    if constexpr (kPred) {
      c.UpdateMax(cid, e);
    } else {
      c.UpdateMin(cid, e);
    }
  };

  for (NodeId v : members) {
    const auto cond = idx.CondOf(v);
    const ChainPos p = idx.PosOfCond(cond);
    // The member itself belongs to its complete list.
    update(p.cid, ContourEntry{p.sid, idx.CondCyclic(cond), v});

    const uint32_t bound = visited.empty() ? kNone : visited[p.cid];
    if (covered(p.sid, bound)) continue;  // segment already walked
    for (auto cur = list(cond).empty() ? next(cond) : cond;
         cur != ThreeHopIndex::kNoCond &&
         !covered(idx.PosOfCond(cur).sid, bound);
         cur = next(cur)) {
      for (const ChainPos& e : list(cur)) {
        ++st.elements_looked_up;
        update(e.cid, ContourEntry{e.sid, true, kInvalidNode});
      }
    }
    if (!visited.empty()) visited[p.cid] = p.sid;
  }
  return c;
}

}  // namespace

Contour MergePredLists(const ThreeHopIndex& idx,
                       std::span<const NodeId> members) {
  return MergeLists<true>(idx, members);
}

Contour MergeSuccLists(const ThreeHopIndex& idx,
                       std::span<const NodeId> members) {
  return MergeLists<false>(idx, members);
}

namespace {

// Shared pair test: does probe entry x (possibly a zero-length self
// entry of data node v) match contour entry e so that a non-empty path
// v -> member exists? `probe_le_entry` is true when the probe must be
// <=c the contour entry (successor probe vs predecessor contour) and
// false for the mirrored case.
bool PairMatches(const ChainPos& x, bool x_genuine, NodeId v,
                 const ContourEntry& e, bool probe_le_entry) {
  if (probe_le_entry ? x.sid < e.sid : x.sid > e.sid) return true;
  if (x.sid != e.sid) return false;
  // Same position: at least one side must cover a real edge, or the
  // contour entry must stem from a different data node than v (two
  // distinct nodes at one position live in a cyclic SCC anyway).
  if (x_genuine || e.genuine) return true;
  return e.self_member != kInvalidNode && e.self_member != v;
}

}  // namespace

bool ProbePredecessorContour(const Contour& cp, const ChainPos& x,
                             bool x_genuine, NodeId v) {
  const ContourEntry* e = cp.Find(x.cid);
  return e != nullptr && PairMatches(x, x_genuine, v, *e, /*probe_le=*/true);
}

bool ProbeSuccessorContour(const Contour& cs, const ChainPos& y,
                           bool y_genuine, NodeId v) {
  const ContourEntry* e = cs.Find(y.cid);
  return e != nullptr &&
         PairMatches(y, y_genuine, v, *e, /*probe_le=*/false);
}

bool NodeReachesContour(const ThreeHopIndex& idx, NodeId v,
                        const Contour& cp) {
  if (cp.empty()) return false;
  const auto cond = idx.CondOf(v);
  const ChainPos p = idx.PosOfCond(cond);
  // Self probe: v sits at p with a zero-length path (genuine iff cyclic).
  if (ProbePredecessorContour(cp, p, idx.CondCyclic(cond), v)) return true;
  // Walked entries are >= 1 edge away from v.
  return idx.ForEachSuccessorEntry(cond, [&](const ChainPos& x) {
    return ProbePredecessorContour(cp, x, /*x_genuine=*/true, v);
  });
}

bool ContourReachesNode(const ThreeHopIndex& idx, const Contour& cs,
                        NodeId v) {
  if (cs.empty()) return false;
  const auto cond = idx.CondOf(v);
  const ChainPos p = idx.PosOfCond(cond);
  if (ProbeSuccessorContour(cs, p, idx.CondCyclic(cond), v)) return true;
  return idx.ForEachPredecessorEntry(cond, [&](const ChainPos& y) {
    return ProbeSuccessorContour(cs, y, /*y_genuine=*/true, v);
  });
}

// ------------------------------------------------------------------------
// ContourIndex: set-reachability overrides.

namespace {

// A merged contour (predecessor or successor, per the factory used).
class ContourSummary : public ReachabilityOracle::SetSummary {
 public:
  explicit ContourSummary(Contour c) : contour(std::move(c)) {}
  Contour contour;
};

const Contour& AsContour(const ReachabilityOracle::SetSummary& s) {
  return static_cast<const ContourSummary&>(s).contour;
}

// Member indices of a node list grouped per chain: `order` lists them
// by (cid, sid, node), sid descending for descending groupings, and run
// r spans order[run_begin[r], run_begin[r + 1]).
struct ChainRuns {
  std::vector<uint32_t> order;
  std::vector<uint32_t> run_begin;

  size_t NumRuns() const { return run_begin.size() - 1; }
  std::span<const uint32_t> Run(size_t r) const {
    return {order.data() + run_begin[r], order.data() + run_begin[r + 1]};
  }
};

ChainRuns GroupByChain(const ThreeHopIndex& idx,
                       std::span<const NodeId> nodes, bool ascending) {
  // (cid, sid) and (node, index) packed into two words; flipping the
  // sid bits turns the ascending sort into a descending one.
  struct Key {
    uint64_t pos, node;
    bool operator<(const Key& o) const {
      return pos != o.pos ? pos < o.pos : node < o.node;
    }
  };
  std::vector<Key> keys(nodes.size());
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    const ChainPos p = idx.PosOf(nodes[i]);
    keys[i] = {uint64_t{p.cid} << 32 | (ascending ? p.sid : ~p.sid),
               uint64_t{nodes[i]} << 32 | i};
  }
  std::sort(keys.begin(), keys.end());
  ChainRuns runs;
  runs.order.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k == 0 || keys[k].pos >> 32 != keys[k - 1].pos >> 32) {
      runs.run_begin.push_back(static_cast<uint32_t>(k));
    }
    runs.order.push_back(static_cast<uint32_t>(keys[k].node));
  }
  runs.run_begin.push_back(static_cast<uint32_t>(keys.size()));
  return runs;
}

// Procedure 7 inner loop on one chain: scans `run` (indices into
// `nodes`, ascending sid) against successor contour cs and returns the
// length of its unreachable prefix. Every later member is reachable:
// once one chain node is reachable from the source set, all larger ones
// are. Each Lin segment is walked at most once per chain: a member
// walks its complete predecessor list only down to the previous
// member's position (the visited floor), which that member already
// found unmatched, and a member at an equal sid (another data node of
// one SCC) walks nothing new.
size_t UnreachedPrefix(const ThreeHopIndex& idx, const Contour& cs,
                       std::span<const NodeId> nodes,
                       std::span<const uint32_t> run) {
  IndexStats& st = idx.stats();
  bool have_floor = false;
  uint32_t floor = 0;
  for (size_t r = 0; r < run.size(); ++r) {
    const NodeId v = nodes[run[r]];
    const auto cond = idx.CondOf(v);
    const ChainPos p = idx.PosOfCond(cond);
    if (ProbeSuccessorContour(cs, p, idx.CondCyclic(cond), v)) return r;
    if (have_floor && p.sid <= floor) continue;
    for (auto cur = idx.Lin(cond).empty() ? idx.PrevWithLin(cond) : cond;
         cur != ThreeHopIndex::kNoCond &&
         !(have_floor && idx.PosOfCond(cur).sid <= floor);
         cur = idx.PrevWithLin(cur)) {
      for (const ChainPos& e : idx.Lin(cur)) {
        ++st.elements_looked_up;
        if (ProbeSuccessorContour(cs, e, true, v)) return r;
      }
    }
    floor = p.sid;
    have_floor = true;
  }
  return run.size();
}

// Successor-scan targets: the target list plus its ascending per-chain
// grouping, computed once and reused for every source scan.
class ChainGroupedTargets : public ReachabilityOracle::SetSummary {
 public:
  ChainGroupedTargets(const ThreeHopIndex& idx, std::span<const NodeId> nodes)
      : targets(nodes.begin(), nodes.end()),
        runs(GroupByChain(idx, nodes, /*ascending=*/true)) {}

  const std::vector<NodeId> targets;
  const ChainRuns runs;
};

}  // namespace

std::unique_ptr<ReachabilityOracle::SetSummary>
ContourIndex::SummarizeTargets(std::span<const NodeId> members) const {
  return std::make_unique<ContourSummary>(MergePredLists(*this, members));
}

std::unique_ptr<ReachabilityOracle::SetSummary>
ContourIndex::SummarizeSources(std::span<const NodeId> members) const {
  return std::make_unique<ContourSummary>(MergeSuccLists(*this, members));
}

bool ContourIndex::ReachesSet(NodeId from, const SetSummary& targets) const {
  ++stats().queries;
  return NodeReachesContour(*this, from, AsContour(targets));
}

bool ContourIndex::SetReaches(const SetSummary& sources, NodeId to) const {
  ++stats().queries;
  return ContourReachesNode(*this, AsContour(sources), to);
}

void ContourIndex::ReachesSetsBatch(
    std::span<const NodeId> sources,
    std::span<const SetSummary* const> target_sets,
    std::vector<std::vector<char>>* out) const {
  IndexStats& st = stats();
  const size_t num_sets = target_sets.size();
  out->assign(num_sets, std::vector<char>(sources.size(), 0));
  std::vector<const Contour*> contours(num_sets);
  for (size_t k = 0; k < num_sets; ++k) {
    contours[k] = &AsContour(*target_sets[k]);
  }

  // Procedure 6 inner loop: sources grouped per chain, descending sid,
  // so positive valuations are inherited down-chain; each Lout segment
  // is walked at most once per chain, shared across all target sets.
  const ChainRuns runs = GroupByChain(*this, sources, /*ascending=*/false);
  std::vector<char> val(num_sets, 0);
  for (size_t r = 0; r < runs.NumRuns(); ++r) {
    std::fill(val.begin(), val.end(), 0);
    uint32_t visited = UINT32_MAX;  // lowest walked start sid

    for (uint32_t i : runs.Run(r)) {
      const NodeId v = sources[i];
      const auto cond = CondOf(v);
      const ChainPos p = PosOfCond(cond);
      const bool cyclic = CondCyclic(cond);

      bool any_pending = false;
      for (size_t k = 0; k < num_sets; ++k) {
        if (!val[k]) {
          // Self probe: v's own position against the target contour.
          if (ProbePredecessorContour(*contours[k], p, cyclic, v)) {
            val[k] = 1;
          } else {
            any_pending = true;
          }
        }
      }
      if (any_pending && p.sid < visited) {
        // Walk the not-yet-visited Lout segment [p.sid, visited).
        auto cur = Lout(cond).empty() ? NextWithLout(cond) : cond;
        while (cur != kNoCond && PosOfCond(cur).sid < visited) {
          for (const ChainPos& e : Lout(cur)) {
            ++st.elements_looked_up;
            for (size_t k = 0; k < num_sets; ++k) {
              if (!val[k] &&
                  ProbePredecessorContour(*contours[k], e, true, v)) {
                val[k] = 1;
              }
            }
          }
          cur = NextWithLout(cur);
        }
        visited = p.sid;
      }
      for (size_t k = 0; k < num_sets; ++k) (*out)[k][i] = val[k];
    }
  }
}

void ContourIndex::SetReachesBatch(const SetSummary& sources,
                                   std::span<const NodeId> targets,
                                   std::vector<char>* out) const {
  const Contour& cs = AsContour(sources);
  out->assign(targets.size(), 0);

  // Procedure 7: targets grouped per chain, ascending sid.
  const ChainRuns runs = GroupByChain(*this, targets, /*ascending=*/true);
  for (size_t r = 0; r < runs.NumRuns(); ++r) {
    const auto run = runs.Run(r);
    for (size_t j = UnreachedPrefix(*this, cs, targets, run); j < run.size();
         ++j) {
      (*out)[run[j]] = 1;
    }
  }
}

std::unique_ptr<ReachabilityOracle::SetSummary>
ContourIndex::PrepareSuccessorTargets(std::span<const NodeId> targets) const {
  return std::make_unique<ChainGroupedTargets>(*this, targets);
}

void ContourIndex::SuccessorsAmong(NodeId from, const SetSummary& targets,
                                   std::vector<uint32_t>* out) const {
  const auto& grouped = static_cast<const ChainGroupedTargets&>(targets);
  // Section 4.3 matching-graph scan: one singleton successor contour
  // per source, scanned per chain like the upward batch.
  const Contour cs = MergeSuccLists(*this, std::span<const NodeId>(&from, 1));
  const size_t appended_from = out->size();
  for (size_t r = 0; r < grouped.runs.NumRuns(); ++r) {
    const auto run = grouped.runs.Run(r);
    for (size_t j = UnreachedPrefix(*this, cs, grouped.targets, run);
         j < run.size(); ++j) {
      out->push_back(run[j]);
    }
  }
  // Runs are ordered by chain; restore the ascending-index contract on
  // the appended suffix only.
  std::sort(out->begin() + appended_from, out->end());
}

}  // namespace gtpq
