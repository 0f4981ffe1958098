#include "core/prune.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "common/logging.h"
#include "common/timer.h"
#include "runtime/parallel.h"

namespace gtpq {

namespace {

// Lanes actually worth spinning up for a candidate set of size n: never
// more than one item per lane, never more than the query budget.
size_t LanesFor(const ParallelEvalContext* ctx, size_t n) {
  return std::min(ctx->lanes, n);
}

// Runs chunk(begin, end, &out, &input_nodes) over n items split into
// contiguous lane chunks and returns the lane outputs concatenated in
// lane order, which reproduces the serial output exactly; the lanes'
// input_nodes are added to stats. Lane 0 runs on the caller (one lane
// is the serial path). When `probed` is set, helper lanes export the
// oracle counters they produce (OracleLaneScope).
template <typename Chunk>
std::vector<NodeId> ParallelCollect(size_t n,
                                    const ReachabilityOracle* probed,
                                    ParallelEvalContext* ctx,
                                    EngineStats* stats, const Chunk& chunk) {
  const size_t lanes = std::max<size_t>(LanesFor(ctx, n), 1);
  std::vector<std::vector<NodeId>> lane_out(lanes);
  std::vector<uint64_t> lane_nodes(lanes, 0);
  ParallelRun(lanes, [&](size_t lane) {
    std::optional<OracleLaneScope> scope;
    if (probed != nullptr) scope.emplace(*probed, lane, ctx);
    auto [begin, end] = LaneChunk(n, lane, lanes);
    chunk(begin, end, &lane_out[lane], &lane_nodes[lane]);
  });
  for (uint64_t nodes : lane_nodes) stats->input_nodes += nodes;
  if (lanes == 1) return std::move(lane_out[0]);
  std::vector<NodeId> out;
  for (const auto& part : lane_out) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// True when the PC child must be evaluated exactly during pruning:
// predicate-role PC children never reach the matching graph, so the
// AD-approximation cannot be repaired for them.
bool NeedsExactPc(const Gtpq& q, QNodeId child) {
  return q.node(child).incoming == EdgeType::kChild &&
         q.node(child).role == NodeRole::kPredicate;
}

// Union of in-neighbors of all candidates, sorted (the P_{u'} sets of
// Section 4.4).
std::vector<NodeId> CollectParents(const DataGraph& g,
                                   const std::vector<NodeId>& candidates,
                                   EngineStats* stats) {
  std::vector<NodeId> parents;
  for (NodeId w : candidates) {
    auto in = g.InNeighbors(w);
    stats->input_nodes += in.size();
    parents.insert(parents.end(), in.begin(), in.end());
  }
  std::sort(parents.begin(), parents.end());
  parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
  return parents;
}

}  // namespace

void PruneDownward(const DataGraph& g, const ReachabilityOracle& idx,
                   const Gtpq& q, std::vector<std::vector<NodeId>>* mat,
                   ParallelEvalContext* ctx, EngineStats* stats) {
  using SetSummary = ReachabilityOracle::SetSummary;

  for (QNodeId u : q.BottomUpOrder()) {
    auto& candidates = (*mat)[u];
    if (q.IsLeaf(u)) continue;

    const auto& children = q.node(u).children;
    std::vector<QNodeId> ad_children, pc_exact_children;
    for (QNodeId c : children) {
      (NeedsExactPc(q, c) ? pc_exact_children : ad_children).push_back(c);
    }
    std::vector<std::vector<NodeId>> parent_sets(pc_exact_children.size());
    for (size_t i = 0; i < pc_exact_children.size(); ++i) {
      parent_sets[i] = CollectParents(g, (*mat)[pc_exact_children[i]], stats);
    }

    // Summarize each AD child's (already pruned) candidate set once;
    // the summaries are immutable after construction and shared
    // read-only by every probing lane.
    std::vector<std::unique_ptr<SetSummary>> summaries;
    std::vector<const SetSummary*> summary_ptrs;
    summaries.reserve(ad_children.size());
    Timer summarize;
    for (QNodeId c : ad_children) {
      summaries.push_back(idx.SummarizeTargets((*mat)[c]));
      summary_ptrs.push_back(summaries.back().get());
    }
    stats->prune_down_summarize_ms += summarize.ElapsedMillis();

    const logic::FormulaRef fext = q.ExtendedPredicate(u);
    // One batched probe per candidate chunk, then the per-candidate
    // formula evaluation into the chunk's keep-list.
    auto process_chunk = [&](size_t begin, size_t end,
                             std::vector<NodeId>* kept,
                             uint64_t* input_nodes) {
      std::span<const NodeId> chunk(candidates.data() + begin, end - begin);
      std::vector<std::vector<char>> reach;
      idx.ReachesSetsBatch(chunk, summary_ptrs, &reach);
      std::vector<char> val(q.NumNodes(), 0);
      kept->reserve(chunk.size());
      for (size_t i = 0; i < chunk.size(); ++i) {
        const NodeId v = chunk[i];
        ++*input_nodes;
        for (size_t k = 0; k < ad_children.size(); ++k) {
          val[ad_children[k]] = reach[k][i];
        }
        for (size_t k = 0; k < pc_exact_children.size(); ++k) {
          val[pc_exact_children[k]] =
              std::binary_search(parent_sets[k].begin(),
                                 parent_sets[k].end(), v)
                  ? 1
                  : 0;
        }
        const bool ok = logic::Evaluate(
            fext, [&](int var) { return val[static_cast<QNodeId>(var)]; });
        if (ok) kept->push_back(v);
      }
    };

    Timer probe;
    candidates =
        ParallelCollect(candidates.size(), &idx, ctx, stats, process_chunk);
    stats->prune_down_probe_ms += probe.ElapsedMillis();
  }
}

std::vector<char> ComputePrimeSubtree(const Gtpq& q) {
  std::vector<char> in_prime(q.NumNodes(), 0);
  auto mark_to_root = [&q, &in_prime](QNodeId u) {
    while (u != kInvalidQNode && !in_prime[u]) {
      in_prime[u] = 1;
      u = q.node(u).parent;
    }
  };
  mark_to_root(q.root());
  for (QNodeId o : q.outputs()) mark_to_root(o);
  for (QNodeId u = 0; u < q.NumNodes(); ++u) {
    if (q.node(u).role == NodeRole::kBackbone &&
        q.node(u).incoming == EdgeType::kChild && u != q.root()) {
      mark_to_root(u);
    }
  }
  return in_prime;
}

bool PruneUpward(const DataGraph& g, const ReachabilityOracle& idx,
                 const Gtpq& q, const std::vector<char>& in_prime,
                 std::vector<std::vector<NodeId>>* mat,
                 const GteaOptions& options, ParallelEvalContext* ctx,
                 EngineStats* stats) {
  using SetSummary = ReachabilityOracle::SetSummary;
  std::vector<std::unique_ptr<SetSummary>> succ(q.NumNodes());
  succ[q.root()] = idx.SummarizeSources((*mat)[q.root()]);

  for (QNodeId u : q.TopDownOrder()) {
    if (!in_prime[u]) continue;
    if (u != q.root() && succ[u] == nullptr) continue;  // parent skipped

    for (QNodeId c : q.node(u).children) {
      if (!in_prime[c]) continue;
      auto& cand = (*mat)[c];
      // Decided on the FULL candidate set, before any lane
      // partitioning: a chunk that happens to hold one candidate must
      // still be refined when the global set is larger.
      const bool singleton_skip =
          options.skip_singleton_upward && cand.size() <= 1;

      if (!singleton_skip) {
        if (q.node(c).incoming == EdgeType::kChild) {
          // Exact PC refinement: candidates must be children of some
          // candidate of u (Section 4.4 first strategy). Lanes expand
          // disjoint chunks of the parent set; the union is sorted
          // afterwards, so chunk boundaries cannot change the result.
          const auto& parents = (*mat)[u];
          auto expand_chunk = [&](size_t begin, size_t end,
                                  std::vector<NodeId>* out,
                                  uint64_t* input_nodes) {
            for (size_t i = begin; i < end; ++i) {
              auto out_nbrs = g.OutNeighbors(parents[i]);
              *input_nodes += out_nbrs.size();
              out->insert(out->end(), out_nbrs.begin(), out_nbrs.end());
            }
          };
          std::vector<NodeId> child_union = ParallelCollect(
              parents.size(), nullptr, ctx, stats, expand_chunk);
          std::sort(child_union.begin(), child_union.end());
          std::vector<NodeId> kept;
          std::set_intersection(cand.begin(), cand.end(),
                                child_union.begin(), child_union.end(),
                                std::back_inserter(kept));
          kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
          cand = std::move(kept);
        } else {
          // AD refinement: batched probes of candidate chunks against
          // the parent's summarized (pruned) candidate set, which is
          // shared read-only across lanes.
          auto refine_chunk = [&](size_t begin, size_t end,
                                  std::vector<NodeId>* kept,
                                  uint64_t* input_nodes) {
            std::span<const NodeId> chunk(cand.data() + begin, end - begin);
            std::vector<char> reached;
            idx.SetReachesBatch(*succ[u], chunk, &reached);
            *input_nodes += chunk.size();
            kept->reserve(chunk.size());
            for (size_t i = 0; i < chunk.size(); ++i) {
              if (reached[i]) kept->push_back(chunk[i]);
            }
          };
          cand = ParallelCollect(cand.size(), &idx, ctx, stats, refine_chunk);
        }
        if (cand.empty()) return false;
      }
      // The child needs a source summary iff it has prime children.
      for (QNodeId gc : q.node(c).children) {
        if (in_prime[gc]) {
          succ[c] = idx.SummarizeSources(cand);
          break;
        }
      }
    }
  }
  return true;
}

}  // namespace gtpq
