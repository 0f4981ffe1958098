#include "timed_oracle.h"

#include "bench_util.h"

namespace perfbench {

using gtpq::NodeId;

template <typename Fn>
void TimedOracle::Timed(const char* span, Fn&& fn) const {
  const double start = NowSeconds();
  fn();
  spans_->Leaf(span, start * 1e6, (NowSeconds() - start) * 1e6);
}

bool TimedOracle::Reaches(NodeId from, NodeId to) const {
  bool r = false;
  Timed("reach.reaches", [&] { r = inner_.Reaches(from, to); });
  ++counts_.point_calls;
  return r;
}

std::unique_ptr<TimedOracle::SetSummary> TimedOracle::SummarizeTargets(
    std::span<const NodeId> members) const {
  std::unique_ptr<SetSummary> s;
  Timed("reach.summarize_targets",
        [&] { s = inner_.SummarizeTargets(members); });
  ++counts_.summarize_targets_calls;
  counts_.summarized_members += members.size();
  return s;
}

std::unique_ptr<TimedOracle::SetSummary> TimedOracle::SummarizeSources(
    std::span<const NodeId> members) const {
  std::unique_ptr<SetSummary> s;
  Timed("reach.summarize_sources",
        [&] { s = inner_.SummarizeSources(members); });
  counts_.summarized_members += members.size();
  return s;
}

bool TimedOracle::ReachesSet(NodeId from, const SetSummary& targets) const {
  bool r = false;
  Timed("reach.reaches_set", [&] { r = inner_.ReachesSet(from, targets); });
  ++counts_.point_calls;
  return r;
}

bool TimedOracle::SetReaches(const SetSummary& sources, NodeId to) const {
  bool r = false;
  Timed("reach.set_reaches", [&] { r = inner_.SetReaches(sources, to); });
  ++counts_.point_calls;
  return r;
}

void TimedOracle::ReachesSetsBatch(
    std::span<const NodeId> sources,
    std::span<const SetSummary* const> target_sets,
    std::vector<std::vector<char>>* out) const {
  Timed("reach.sets_batch",
        [&] { inner_.ReachesSetsBatch(sources, target_sets, out); });
  ++counts_.sets_batch_calls;
  counts_.sets_batch_pairs += sources.size() * target_sets.size();
  for (const std::vector<char>& row : *out) {
    for (char hit : row) counts_.sets_batch_hits += hit != 0;
  }
}

void TimedOracle::SetReachesBatch(const SetSummary& sources,
                                  std::span<const NodeId> targets,
                                  std::vector<char>* out) const {
  Timed("reach.set_reaches_batch",
        [&] { inner_.SetReachesBatch(sources, targets, out); });
  counts_.set_reaches_batch_targets += targets.size();
}

std::unique_ptr<TimedOracle::SetSummary> TimedOracle::PrepareSuccessorTargets(
    std::span<const NodeId> targets) const {
  std::unique_ptr<SetSummary> s;
  Timed("reach.prepare_successors",
        [&] { s = inner_.PrepareSuccessorTargets(targets); });
  return s;
}

void TimedOracle::SuccessorsAmong(NodeId from, const SetSummary& targets,
                                  std::vector<uint32_t>* out) const {
  Timed("reach.successors_among",
        [&] { inner_.SuccessorsAmong(from, targets, out); });
  ++counts_.successor_scans;
}

}  // namespace perfbench
