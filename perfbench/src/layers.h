#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/graph_delta.h"
#include "graph/data_graph.h"
#include "reachability/reachability_index.h"
#include "workloads.h"

namespace perfbench {

/// Direct timings of single public calls, made by the traced run
/// outside the served path.

struct StorageTiming {
  double save_ms = 0;  // SaveReachabilityIndex
  double load_ms = 0;  // LoadReachabilityIndexView
  double index_mb = 0;
};
/// Re-saves and zero-copy loads the deployment's index file; for
/// workloads served from an in-memory index, builds it once (untimed)
/// and saves that.
StorageTiming TimeStorage(const Deployment& d, const std::string& dir);

struct DeltaChain {
  double with_updates_ms = 0;  // mean per batch
  uint64_t compactions = 0;
  double pending_ops_mean = 0;
};
/// Follows `batches` through a delta:contour chain over `base`, timing
/// each DeltaOverlayOracle::WithUpdates.
DeltaChain FollowUpdates(const gtpq::DataGraph& base,
                         const std::vector<gtpq::UpdateBatch>& batches);

/// cluster::BuildPartition into `dir` (2 shards, interval indexes).
double TimePartitionMs(const gtpq::DataGraph& g, const std::string& dir);

/// Mean ParseQuery time over the catalog texts, in microseconds.
double ParseMicros(const gtpq::DataGraph& g, const Inputs& in);

/// In-process GTEA time over `oracle` divided by TwigStackD time, summed
/// over the catalog's conjunctive Q1-Q3 (0 when the catalog has none).
double GteaOverTwigStackD(const gtpq::DataGraph& g,
                          std::shared_ptr<const gtpq::ReachabilityOracle> oracle,
                          const Inputs& in);

/// GteaEngine::Evaluate time at 1 lane over time at `lanes` lanes, on
/// the first `count` catalog queries.
double LaneSpeedup(const gtpq::DataGraph& g,
                   std::shared_ptr<const gtpq::ReachabilityOracle> oracle,
                   const Inputs& in, size_t count, size_t lanes,
                   uint64_t limit);

/// Median round trip of `probes` PROBE frames (one pivot, 16 targets)
/// sent to the server on `port`, in microseconds.
double ProbeRttP50Us(uint16_t port, size_t graph_nodes, uint64_t seed,
                     size_t probes);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
