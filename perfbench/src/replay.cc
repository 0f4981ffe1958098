#include "replay.h"

#include <algorithm>
#include <optional>

#include "core/enumerate.h"
#include "core/match.h"
#include "core/matching_graph.h"
#include "core/parallel_eval.h"
#include "core/prune.h"

namespace perfbench {

using namespace gtpq;

namespace {

uint64_t TotalCandidates(const std::vector<std::vector<NodeId>>& mat,
                         const std::vector<char>* only) {
  uint64_t n = 0;
  for (size_t u = 0; u < mat.size(); ++u) {
    if (only == nullptr || (*only)[u]) n += mat[u].size();
  }
  return n;
}

/// Closes the stage span opened by the constructor.
class Stage {
 public:
  Stage(SpanRecorder* spans, const char* name) : spans_(spans) {
    spans_->Begin(name);
  }
  ~Stage() { spans_->End(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  SpanRecorder* spans_;
};

}  // namespace

QueryResult ReplayQuery(const DataGraph& g, const TimedOracle& oracle,
                        const Gtpq& q, const GteaOptions& options,
                        uint64_t key, SpanRecorder* spans,
                        ReplayCounts* counts) {
  const IndexStats inner_before = oracle.inner().stats();
  EngineStats stats;
  ParallelEvalContext ctx;  // one lane: the replay is serial
  QueryResult result;
  result.output_nodes = q.outputs();
  std::sort(result.output_nodes.begin(), result.output_nodes.end());

  spans->Begin("query", key);
  [&] {
    std::vector<std::vector<NodeId>> mat;
    {
      Stage s(spans, "core.match");
      mat = ComputeCandidates(g, q, &stats);
    }
    counts->candidates_matched += TotalCandidates(mat, nullptr);
    {
      Stage s(spans, "core.prune_down");
      PruneDownward(g, oracle, q, &mat, &ctx, &stats);
    }
    counts->candidates_after_down += TotalCandidates(mat, nullptr);
    if (mat[q.root()].empty()) return;
    std::vector<char> in_prime;
    {
      Stage s(spans, "core.prime");
      in_prime = ComputePrimeSubtree(q);
    }
    counts->prime_before_up += TotalCandidates(mat, &in_prime);
    bool nonempty = true;
    if (options.upward_pruning) {
      Stage s(spans, "core.prune_up");
      nonempty =
          PruneUpward(g, oracle, q, in_prime, &mat, options, &ctx, &stats);
    }
    counts->prime_after_up += TotalCandidates(mat, &in_prime);
    if (!nonempty) return;
    std::optional<MatchingGraph> mg;
    {
      Stage s(spans, "core.mg_build");
      mg.emplace(BuildMatchingGraph(g, oracle, q, in_prime, mat, options,
                                    &ctx, &stats));
    }
    counts->mg_nodes += mg->TotalNodes();
    {
      Stage s(spans, "core.mg_reduce");
      nonempty = ReduceMatchingGraph(q, &*mg, &stats);
    }
    for (QNodeId u = 0; u < q.NumNodes(); ++u) {
      if (!mg->InTree(u)) continue;
      for (size_t i = 0; i < mg->Candidates(u).size(); ++i) {
        counts->mg_alive += mg->Alive(u, i);
      }
    }
    if (!nonempty) return;
    Stage s(spans, "core.enumerate");
    result = EnumerateResults(q, *mg, options, &ctx, &stats);
  }();
  spans->End();

  const IndexStats& inner_after = oracle.inner().stats();
  counts->queries += 1;
  counts->input_nodes += stats.input_nodes;
  counts->intermediate_size += stats.intermediate_size;
  counts->result_tuples += result.tuples.size();
  counts->index_lookups +=
      inner_after.elements_looked_up - inner_before.elements_looked_up;
  counts->point_probes += inner_after.queries - inner_before.queries;
  counts->reach = oracle.counts();
  return result;
}

}  // namespace perfbench
