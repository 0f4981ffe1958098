#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/data_graph.h"
#include "net/server.h"
#include "query/gtpq.h"
#include "reachability/reachability_index.h"

namespace perfbench {

enum class WorkloadKind { kXmarkPaper, kDagTopk };

/// Static description of one named workload: dataset and load shape.
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kXmarkPaper;
  /// QUERYs the closed-loop reader keeps in flight (capped at the
  /// core count). Each QUERY is evaluated serially, without lanes.
  size_t outstanding = 1;
  /// Per-QUERY result cap sent on the wire (0 = unlimited).
  uint64_t result_limit = 0;
  /// Distinct queries in the seeded catalog the stream cycles through.
  size_t catalog_size = 32;
  /// Catalog queries the traced run replays in process.
  size_t replay_queries = 8;
  /// The reported tail percentile: the highest of p90 and p99 with at
  /// least 10 samples beyond it at the 50 s run length.
  double tail_quantile = 0.9;
};

/// The named workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One served deployment: the dataset, its index file and the server
/// the load connects to.
struct Deployment {
  gtpq::DataGraph graph;
  /// Factory spec of the served index, and the file it was saved to
  /// (empty when it is built in memory).
  std::string index_spec;
  std::string index_file;
  // The server is declared after the graph it serves, so it is
  // destroyed (and stopped) first.
  std::unique_ptr<gtpq::net::NetServer> server;
  double setup_s = 0;

  uint16_t port() const { return server->port(); }
  /// The oracle the server currently answers from, kept alive by the
  /// snapshot it belongs to.
  std::shared_ptr<const gtpq::ReachabilityOracle> ServedOracle() const;
  /// Stops the server; idempotent.
  void Stop();
};

/// Generates the dataset, builds/saves/loads its index, starts the
/// server and completes one HELLO against the serving endpoint. The
/// elapsed time is Deployment::setup_s. `dir` must exist and be empty.
gtpq::Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                               const std::string& dir,
                                               size_t cores);

/// Everything the server receives: the query catalog and the order
/// queries are sent in (drawn from the seed).
struct Inputs {
  std::vector<gtpq::Gtpq> queries;
  std::vector<std::string> texts;
  /// Template name per catalog entry ("Q1", "DIS2", "random", ...).
  std::vector<std::string> kinds;
  /// Catalog indices in send order; the reader takes entries in turn
  /// and wraps around.
  std::vector<uint32_t> stream;
};

Inputs MakeInputs(const WorkloadSpec& spec, const gtpq::DataGraph& g,
                  uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
