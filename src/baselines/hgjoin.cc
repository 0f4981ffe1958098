#include "baselines/hgjoin.h"

#include <algorithm>
#include <functional>
#include <map>

#include "baselines/match_graph_util.h"
#include "common/logging.h"
#include "common/timer.h"

namespace gtpq {

namespace {

// One query edge's match pairs (parent candidate, child candidate).
struct EdgeRelation {
  QNodeId parent, child;
  std::vector<std::pair<NodeId, NodeId>> pairs;
};

std::vector<NodeId> Candidates(const DataGraph& g, const Gtpq& q,
                               QNodeId u, EngineStats* stats) {
  std::vector<NodeId> out;
  auto label = q.node(u).attr_pred.RequiredLabel(g.label_attr());
  if (label.has_value() && q.node(u).attr_pred.atoms().size() == 1) {
    auto hits = g.NodesWithLabel(*label);
    out.assign(hits.begin(), hits.end());
  } else {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (q.node(u).attr_pred.Matches(g, v)) out.push_back(v);
    }
  }
  stats->input_nodes += out.size();
  return out;
}

// AD pairs via interval stabbing: child candidates sorted by post
// number; every interval of the parent covers a contiguous post range.
void JoinEdge(const DataGraph& g, const IntervalIndex& idx,
              const Gtpq& q, QNodeId child,
              const std::vector<NodeId>& pcand,
              const std::vector<NodeId>& ccand, EdgeRelation* rel,
              EngineStats* stats) {
  rel->parent = q.node(child).parent;
  rel->child = child;
  if (q.node(child).incoming == EdgeType::kChild) {
    for (NodeId v : pcand) {
      auto out = g.OutNeighbors(v);
      for (NodeId w : ccand) {
        if (std::binary_search(out.begin(), out.end(), w)) {
          rel->pairs.emplace_back(v, w);
        }
      }
    }
  } else {
    std::vector<NodeId> by_post(ccand);
    std::sort(by_post.begin(), by_post.end(),
              [&idx](NodeId a, NodeId b) {
                return idx.PostOf(a) < idx.PostOf(b);
              });
    for (NodeId v : pcand) {
      for (const auto& interval : idx.IntervalsOf(v)) {
        ++idx.stats().elements_looked_up;
        auto lo = std::lower_bound(
            by_post.begin(), by_post.end(), interval.low,
            [&idx](NodeId a, uint32_t p) { return idx.PostOf(a) < p; });
        for (auto it = lo;
             it != by_post.end() && idx.PostOf(*it) <= interval.post;
             ++it) {
          if (*it != v) rel->pairs.emplace_back(v, *it);
        }
      }
    }
  }
  stats->intermediate_size += 2 * rel->pairs.size();
}

// Connected join orders over the query edges (each next edge shares a
// query node with the already-joined set).
void EnumeratePlans(size_t num_edges, size_t cap,
                    std::vector<std::vector<size_t>>* plans,
                    const std::vector<EdgeRelation>& rels) {
  std::vector<size_t> current;
  std::vector<char> used(num_edges, 0);
  std::function<void()> recurse = [&]() {
    if (plans->size() >= cap) return;
    if (current.size() == num_edges) {
      plans->push_back(current);
      return;
    }
    for (size_t e = 0; e < num_edges; ++e) {
      if (used[e]) continue;
      bool connected = current.empty();
      for (size_t chosen : current) {
        if (rels[e].parent == rels[chosen].parent ||
            rels[e].parent == rels[chosen].child ||
            rels[e].child == rels[chosen].parent ||
            rels[e].child == rels[chosen].child) {
          connected = true;
          break;
        }
      }
      if (!connected) continue;
      used[e] = 1;
      current.push_back(e);
      recurse();
      current.pop_back();
      used[e] = 0;
    }
  };
  recurse();
}

// Folds a plan with binary hash joins; returns full-width tuples.
std::vector<std::vector<NodeId>> RunPlan(
    const Gtpq& q, const std::vector<EdgeRelation>& rels,
    const std::vector<size_t>& plan, EngineStats* stats) {
  std::vector<char> bound(q.NumNodes(), 0);
  std::vector<std::vector<NodeId>> acc;
  for (size_t step = 0; step < plan.size(); ++step) {
    const EdgeRelation& rel = rels[plan[step]];
    if (step == 0) {
      acc.reserve(rel.pairs.size());
      for (const auto& [v, w] : rel.pairs) {
        std::vector<NodeId> t(q.NumNodes(), kInvalidNode);
        t[rel.parent] = v;
        t[rel.child] = w;
        acc.push_back(std::move(t));
      }
      bound[rel.parent] = bound[rel.child] = 1;
      stats->intermediate_size += 2 * acc.size();
      continue;
    }
    const bool parent_bound = bound[rel.parent];
    const bool child_bound = bound[rel.child];
    GTPQ_CHECK(parent_bound || child_bound) << "disconnected plan step";
    // Hash the relation on its bound side(s).
    std::map<std::pair<NodeId, NodeId>, std::vector<size_t>> index;
    for (size_t i = 0; i < rel.pairs.size(); ++i) {
      NodeId kp = parent_bound ? rel.pairs[i].first : kInvalidNode;
      NodeId kc = child_bound ? rel.pairs[i].second : kInvalidNode;
      index[{kp, kc}].push_back(i);
    }
    std::vector<std::vector<NodeId>> next;
    for (const auto& t : acc) {
      NodeId kp = parent_bound ? t[rel.parent] : kInvalidNode;
      NodeId kc = child_bound ? t[rel.child] : kInvalidNode;
      auto it = index.find({kp, kc});
      if (it == index.end()) continue;
      for (size_t i : it->second) {
        ++stats->join_ops;
        std::vector<NodeId> merged = t;
        merged[rel.parent] = rel.pairs[i].first;
        merged[rel.child] = rel.pairs[i].second;
        next.push_back(std::move(merged));
      }
    }
    acc = std::move(next);
    bound[rel.parent] = bound[rel.child] = 1;
    stats->intermediate_size += acc.size() * 2;
    if (acc.empty()) break;
  }
  return acc;
}

QueryResult ProjectTuples(const Gtpq& q,
                          const std::vector<std::vector<NodeId>>& tuples) {
  QueryResult result;
  result.output_nodes = q.outputs();
  std::sort(result.output_nodes.begin(), result.output_nodes.end());
  for (const auto& t : tuples) {
    ResultTuple row;
    row.reserve(result.output_nodes.size());
    for (QNodeId o : result.output_nodes) row.push_back(t[o]);
    result.tuples.push_back(std::move(row));
  }
  result.Normalize();
  return result;
}

}  // namespace

QueryResult EvaluateHgJoin(const DataGraph& g, const IntervalIndex& idx,
                           const Gtpq& q, const HgJoinOptions& options,
                           EngineStats* stats, HgJoinReport* report) {
  GTPQ_CHECK(q.IsConjunctive()) << "HGJoin handles conjunctive queries";
  idx.stats().Reset();
  QueryResult empty;
  empty.output_nodes = q.outputs();
  std::sort(empty.output_nodes.begin(), empty.output_nodes.end());

  std::vector<std::vector<NodeId>> cand(q.NumNodes());
  for (QNodeId u = 0; u < q.NumNodes(); ++u) {
    cand[u] = Candidates(g, q, u, stats);
    if (cand[u].empty()) return empty;
  }

  // Single-node query: the candidates are the answer.
  if (q.NumNodes() == 1) {
    std::vector<std::vector<NodeId>> tuples;
    for (NodeId v : cand[0]) tuples.push_back({v});
    return ProjectTuples(q, tuples);
  }

  std::vector<EdgeRelation> rels;
  rels.reserve(q.NumNodes() - 1);
  for (QNodeId c = 1; c < q.NumNodes(); ++c) {
    EdgeRelation rel;
    JoinEdge(g, idx, q, c, cand[q.node(c).parent], cand[c], &rel, stats);
    // #index plumbed from the oracle's own counters, so the metric
    // stays backend-accurate.
    stats->index_lookups = idx.stats().elements_looked_up;
    if (rel.pairs.empty()) return empty;
    rels.push_back(std::move(rel));
  }

  if (options.graph_intermediates) {
    // HGJoin*: pair lists become a match graph, reduced then traversed.
    ConjMatchGraph mg;
    mg.cand.resize(q.NumNodes());
    mg.child_lists.resize(q.NumNodes());
    for (QNodeId u = 0; u < q.NumNodes(); ++u) mg.cand[u] = cand[u];
    for (const auto& rel : rels) {
      std::map<NodeId, uint32_t> parent_index, child_index;
      for (uint32_t i = 0; i < mg.cand[rel.parent].size(); ++i) {
        parent_index[mg.cand[rel.parent][i]] = i;
      }
      for (uint32_t i = 0; i < mg.cand[rel.child].size(); ++i) {
        child_index[mg.cand[rel.child][i]] = i;
      }
      mg.child_lists[rel.child].assign(mg.cand[rel.parent].size(), {});
      for (const auto& [v, w] : rel.pairs) {
        mg.child_lists[rel.child][parent_index[v]].push_back(
            child_index[w]);
      }
    }
    if (!ReduceConjMatchGraph(q, &mg)) return empty;
    return EnumerateConjMatchGraph(q, mg, stats);
  }

  // HGJoin+: try all (capped) connected plans and report the fastest
  // plan's time. Every plan yields the same answer; the counters are
  // those of one plan chosen without the clock (smallest intermediate
  // size, ties to the lowest plan index), so they are deterministic.
  std::vector<std::vector<size_t>> plans;
  EnumeratePlans(rels.size(), options.max_plans, &plans, rels);
  GTPQ_CHECK(!plans.empty());
  QueryResult result;
  double best_ms = 0;
  EngineStats chosen;
  for (size_t i = 0; i < plans.size(); ++i) {
    EngineStats scratch;
    Timer t;
    auto tuples = RunPlan(q, rels, plans[i], &scratch);
    const double ms = t.ElapsedMillis();
    if (i == 0 || ms < best_ms) best_ms = ms;
    if (i == 0 || scratch.intermediate_size < chosen.intermediate_size) {
      chosen = scratch;
      result = ProjectTuples(q, tuples);
    }
  }
  stats->join_ops += chosen.join_ops;
  stats->intermediate_size += chosen.intermediate_size;
  if (report != nullptr) {
    report->best_plan_ms = best_ms;
    report->plans_tried = plans.size();
  }
  return result;
}

}  // namespace gtpq
