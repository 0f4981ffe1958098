#ifndef PERFBENCH_TIMED_ORACLE_H_
#define PERFBENCH_TIMED_ORACLE_H_

#include <cstdint>

#include "reachability/reachability_index.h"
#include "spans.h"

namespace perfbench {

/// Work done through each public ReachabilityOracle call. Their times
/// are recorded as spans.
struct ReachCounts {
  uint64_t summarize_targets_calls = 0;
  uint64_t summarized_members = 0;  // SummarizeTargets + SummarizeSources
  uint64_t sets_batch_calls = 0;
  uint64_t sets_batch_pairs = 0;  // sources x target sets
  uint64_t sets_batch_hits = 0;   // pairs answered "reaches"
  uint64_t set_reaches_batch_targets = 0;
  uint64_t successor_scans = 0;   // SuccessorsAmong calls
  uint64_t point_calls = 0;       // Reaches/ReachesSet/SetReaches calls
  bool operator==(const ReachCounts&) const = default;
};

/// A forwarding decorator that counts every public call into the
/// wrapped oracle and records each as a timed "reach.<call>" child span
/// of the recorder's open span. Summaries are the inner oracle's own,
/// so probes reach the inner oracle exactly as they would undecorated.
/// Serial use only (one replay thread).
class TimedOracle : public gtpq::ReachabilityOracle {
 public:
  TimedOracle(const gtpq::ReachabilityOracle& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  std::string_view name() const override { return inner_.name(); }
  bool Reaches(gtpq::NodeId from, gtpq::NodeId to) const override;
  std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const gtpq::NodeId> members) const override;
  std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const gtpq::NodeId> members) const override;
  bool ReachesSet(gtpq::NodeId from, const SetSummary& targets) const override;
  bool SetReaches(const SetSummary& sources, gtpq::NodeId to) const override;
  void ReachesSetsBatch(std::span<const gtpq::NodeId> sources,
                        std::span<const SetSummary* const> target_sets,
                        std::vector<std::vector<char>>* out) const override;
  void SetReachesBatch(const SetSummary& sources,
                       std::span<const gtpq::NodeId> targets,
                       std::vector<char>* out) const override;
  std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const gtpq::NodeId> targets) const override;
  void SuccessorsAmong(gtpq::NodeId from, const SetSummary& targets,
                       std::vector<uint32_t>* out) const override;

  const gtpq::ReachabilityOracle& inner() const { return inner_; }
  /// Counts accumulated since construction.
  const ReachCounts& counts() const { return counts_; }

 private:
  /// Runs `fn` and records it as a leaf span named `span`.
  template <typename Fn>
  void Timed(const char* span, Fn&& fn) const;

  const gtpq::ReachabilityOracle& inner_;
  SpanRecorder* spans_;
  mutable ReachCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_ORACLE_H_
