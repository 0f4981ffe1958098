#ifndef GTPQ_BASELINES_HGJOIN_H_
#define GTPQ_BASELINES_HGJOIN_H_

#include "core/eval_types.h"
#include "query/gtpq.h"
#include "reachability/interval_index.h"

namespace gtpq {

/// Tuning for HGJoin (Wang, Li, Luo, Gao, PVLDB'08), the hash-based
/// structural-join evaluator over interval (OPT-tree-cover) labels.
struct HgJoinOptions {
  /// HGJoin*: represent intermediate results as a match graph instead
  /// of tuple relations (the revised variant the paper evaluates).
  bool graph_intermediates = false;
  /// HGJoin+: plans (connected query-edge join orders) enumerated; the
  /// best plan's time is reported, mirroring the paper's replacement of
  /// the exponential plan generator by exhaustive evaluation.
  size_t max_plans = 64;
};

/// Per-evaluation report for the benchmark harness.
struct HgJoinReport {
  double best_plan_ms = 0;
  size_t plans_tried = 0;
};

/// Evaluates a conjunctive query. With graph_intermediates the match
/// graph is semijoin-reduced and traversed once; otherwise every plan
/// folds binary hash joins over per-edge match-pair relations, the
/// fastest plan's time is reported in `report`, and `stats` gets the
/// join counters of the plan with the smallest intermediate size.
QueryResult EvaluateHgJoin(const DataGraph& g, const IntervalIndex& idx,
                           const Gtpq& q, const HgJoinOptions& options,
                           EngineStats* stats, HgJoinReport* report);

}  // namespace gtpq

#endif  // GTPQ_BASELINES_HGJOIN_H_
