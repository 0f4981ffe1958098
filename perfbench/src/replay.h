#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "core/eval_types.h"
#include "graph/data_graph.h"
#include "query/gtpq.h"
#include "spans.h"
#include "timed_oracle.h"

namespace perfbench {

/// Exact work counts of a serial replay, summed over queries. Two
/// replays of the same queries over the same index must agree on every
/// field (the determinism rule the benchmark's own test enforces).
struct ReplayCounts {
  uint64_t queries = 0;
  uint64_t input_nodes = 0;
  uint64_t index_lookups = 0;  // inner IndexStats::elements_looked_up
  uint64_t point_probes = 0;   // inner IndexStats::queries
  uint64_t intermediate_size = 0;
  uint64_t result_tuples = 0;
  uint64_t candidates_matched = 0;
  uint64_t candidates_after_down = 0;
  uint64_t prime_before_up = 0;
  uint64_t prime_after_up = 0;
  uint64_t mg_nodes = 0;
  uint64_t mg_alive = 0;
  /// The oracle's counts, which accumulate over every query it replays.
  ReachCounts reach;

  bool operator==(const ReplayCounts&) const = default;
};

/// Runs `q` through the GTEA stages in GteaEngine::Evaluate's order —
/// ComputeCandidates, PruneDownward, ComputePrimeSubtree, PruneUpward,
/// BuildMatchingGraph, ReduceMatchingGraph, EnumerateResults — serially
/// over `oracle`, recording a "query" span with one "core.<stage>"
/// child per stage (the oracle adds "reach.<call>" grandchildren), and
/// adds the query's work to `counts`. Use one oracle per `counts`.
gtpq::QueryResult ReplayQuery(const gtpq::DataGraph& g,
                              const TimedOracle& oracle, const gtpq::Gtpq& q,
                              const gtpq::GteaOptions& options, uint64_t key,
                              SpanRecorder* spans, ReplayCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
