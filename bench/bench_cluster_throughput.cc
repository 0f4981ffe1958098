// Sharded-cluster serving throughput: partitions the workload graph
// into S shards, hosts S in-process shard servers plus a gtpq-wire
// router in front of them, and drives the ROUTER with N pipelining
// client threads — so every reachability probe a query needs crosses
// the wire to the owning shard. Reports qps and p50/p99 per
// (shards, clients, pipeline) configuration and verifies every routed
// answer differentially against a single in-process QueryServer over
// the unpartitioned graph.
//
//   --shards=1,3               shard-count sweep (self-hosted mode)
//   --clients=1,2              client-thread sweep
//   --pipeline=4               pipelining-depth sweep
//   --queries=8                distinct random queries in the pool
//   --requests=16              requests per client per configuration
//   --limit=64                 per-query result cap sent on the wire
//   --threads=2                pool threads per hosted server
//   --inner=interval           per-shard index spec
//   --gen=digraph:300,7,3      deterministic workload graph spec
//   --connect=host:port        drive an external `gteactl route`
//                              instead (the graph is rebuilt locally
//                              from --gen=, which must match; rows are
//                              labeled with the first --shards= value)
//   --json=<path>              machine-readable rows (CI perf tracking)
//   --quiet                    suppress log output below error level
//
// Defaults are deliberately small: unlike bench_net_throughput, every
// reachability probe inside a routed query is a loopback RTT to a
// shard, so per-query latency is dominated by probe fan-out.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/harness.h"
#include "bench/wire_load.h"
#include "cluster/partition.h"
#include "common/logging.h"
#include "graph/graph_io.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/graph_gen_spec.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

/// A fully self-hosted cluster: shard servers plus a router server
/// whose engine speaks `cluster:` to them. Holds the shard graphs
/// alive for the servers that reference them.
struct HostedCluster {
  std::vector<DataGraph> shard_graphs;
  std::vector<std::unique_ptr<net::NetServer>> shard_servers;
  std::unique_ptr<net::NetServer> router;
};

bool BringUp(const DataGraph& g, size_t shards, const std::string& inner,
             size_t threads, const std::string& dir, HostedCluster* out) {
  cluster::BuildPartitionOptions options;
  options.plan.num_shards = shards;
  options.inner_spec = inner;
  auto built = cluster::BuildPartition(g, options, dir);
  if (!built.ok()) {
    std::fprintf(stderr, "partition: %s\n",
                 built.status().ToString().c_str());
    return false;
  }
  const size_t actual = built->map.num_shards();
  out->shard_graphs.reserve(actual);
  std::string endpoints;
  for (size_t s = 0; s < actual; ++s) {
    auto local = LoadDataGraphFromFile(built->graph_paths[s]);
    if (!local.ok()) {
      std::fprintf(stderr, "shard %zu: %s\n", s,
                   local.status().ToString().c_str());
      return false;
    }
    out->shard_graphs.push_back(local.TakeValue());
    net::NetServerOptions so;
    so.runtime.num_threads = threads;
    so.runtime.engine_spec = "gtea:file:" + built->index_paths[s];
    out->shard_servers.push_back(std::make_unique<net::NetServer>(
        out->shard_graphs[s], so));
    const Status started = out->shard_servers[s]->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "shard %zu: %s\n", s,
                   started.ToString().c_str());
      return false;
    }
    if (!endpoints.empty()) endpoints += ',';
    endpoints += "127.0.0.1:" +
                 std::to_string(out->shard_servers[s]->port());
  }

  net::NetServerOptions ro;
  ro.runtime.num_threads = threads;
  ro.runtime.engine_spec =
      "gtea:cluster:" + built->map_path + "@" + endpoints;
  out->router = std::make_unique<net::NetServer>(g, ro);
  const Status started = out->router->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "router: %s\n", started.ToString().c_str());
    return false;
  }
  // The factory falls back to the default oracle when the cluster spec
  // cannot connect; a bench silently measuring that fallback would
  // report single-node numbers as cluster numbers.
  net::NetClient probe;
  if (!net::ConnectWithRetry(&probe, "127.0.0.1", out->router->port())
           .ok()) {
    std::fprintf(stderr, "router: cannot connect for engine check\n");
    return false;
  }
  auto stats = probe.Stats();
  if (!stats.ok() ||
      stats->engine.find("cluster:") == std::string::npos) {
    std::fprintf(stderr, "router engine is '%s', not a cluster engine\n",
                 stats.ok() ? stats->engine.c_str() : "<unreachable>");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = JsonFlag(argc, argv);
  const auto shard_sweep = SizeListFlag(argc, argv, "--shards=", "1,3");
  const auto client_sweep = SizeListFlag(argc, argv, "--clients=", "1,2");
  const auto pipeline_sweep =
      SizeListFlag(argc, argv, "--pipeline=", "4");
  const size_t num_queries = SizeFlag(argc, argv, "--queries=", 8);
  const size_t requests = SizeFlag(argc, argv, "--requests=", 16);
  const uint64_t limit = SizeFlag(argc, argv, "--limit=", 64);
  const size_t threads = SizeFlag(argc, argv, "--threads=", 2);
  const auto inner =
      SplitFlag(argc, argv, "--inner=", "interval").front();
  std::string connect, gen_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) connect = argv[i] + 10;
    if (std::strncmp(argv[i], "--gen=", 6) == 0) gen_spec = argv[i] + 6;
    // Router wire-failure warnings (expected during teardown races)
    // otherwise interleave with the result table.
    if (std::strcmp(argv[i], "--quiet") == 0) {
      SetLogLevel(LogLevel::kError);
    }
  }
  if (gen_spec.empty()) {
    // Deterministic default sized by the global scale knob; the graph
    // stays modest because every routed reachability probe is an RTT.
    size_t nodes = static_cast<size_t>(15000 * BenchScale());
    if (nodes < 300) nodes = 300;
    gen_spec = "digraph:" + std::to_string(nodes) + ",7,3";
  }
  for (size_t value : shard_sweep) {
    if (value == 0) {
      std::fprintf(stderr, "--shards entries must be > 0\n");
      return 2;
    }
  }
  if (shard_sweep.empty() || client_sweep.empty() ||
      pipeline_sweep.empty() || num_queries == 0 || requests == 0) {
    std::fprintf(stderr,
                 "--shards/--clients/--pipeline/--queries/--requests "
                 "must be non-empty\n");
    return 2;
  }

  auto generated = workload::GenerateGraphFromSpec(gen_spec);
  if (!generated.ok()) {
    std::fprintf(stderr, "--gen=%s: %s\n", gen_spec.c_str(),
                 generated.status().ToString().c_str());
    return 2;
  }
  const DataGraph g = generated.TakeValue();

  // The single in-process QueryServer over the UNPARTITIONED graph is
  // the differential baseline: a routed cluster of any shard count must
  // answer byte-identically.
  const WireWorkload workload =
      MakeWireWorkload(g, num_queries, threads, "gtea", limit);
  if (workload.queries.empty()) {
    std::fprintf(stderr, "query generator starved\n");
    return 1;
  }

  std::printf("Cluster serving throughput: %s (%zu nodes), %zu-query "
              "pool, %zu requests/client\n",
              gen_spec.c_str(), g.NumNodes(), workload.queries.size(),
              requests);
  std::printf("%8s %8s %10s %10s %12s %10s %10s %10s\n", "shards",
              "clients", "pipeline", "requests", "qps", "p50 ms",
              "p99 ms", "wall ms");

  JsonReport report("cluster_throughput");
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("pool_queries",
                 static_cast<uint64_t>(workload.queries.size()));
  report.AddMeta("result_limit", limit);

  uint64_t total_requests = 0, total_bad = 0;
  const std::string tmp_root =
      (std::filesystem::temp_directory_path() /
       ("gtpq_bench_cluster_" + std::to_string(getpid())))
          .string();

  const std::vector<size_t> hosted_shards =
      connect.empty() ? shard_sweep
                      : std::vector<size_t>{shard_sweep.front()};
  for (size_t shards : hosted_shards) {
    HostedCluster hosted;
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    if (connect.empty()) {
      const std::string dir = tmp_root + "/s" + std::to_string(shards);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec || !BringUp(g, shards, inner, threads, dir, &hosted)) {
        std::filesystem::remove_all(tmp_root, ec);
        return 1;
      }
      port = hosted.router->port();
    } else if (!net::ParseHostPort(connect, &host, &port)) {
      std::fprintf(stderr, "malformed --connect= value '%s' (want "
                           "host:port)\n",
                   connect.c_str());
      return 2;
    }

    for (size_t clients : client_sweep) {
      for (size_t pipeline : pipeline_sweep) {
        if (clients == 0 || pipeline == 0) {
          std::fprintf(stderr, "--clients/--pipeline must be > 0\n");
          return 2;
        }
        const WireLoadResult r = RunWireLoad(host, port, workload, clients,
                                             requests, pipeline, limit);
        const uint64_t bad = r.mismatches + r.errors;
        std::printf("%8zu %8zu %10zu %10llu %12.0f %10.2f %10.2f "
                    "%10.1f%s\n",
                    shards, clients, pipeline,
                    static_cast<unsigned long long>(r.answered), r.qps,
                    r.p50_ms, r.p99_ms, r.wall_ms,
                    bad > 0 ? "  [MISMATCHES]" : "");
        report.AddRow()
            .Add("shards", static_cast<uint64_t>(shards))
            .Add("clients", static_cast<uint64_t>(clients))
            .Add("pipeline", static_cast<uint64_t>(pipeline))
            .Add("requests", r.answered)
            .Add("queries_per_sec", r.qps)
            .Add("p50_ms", r.p50_ms)
            .Add("p99_ms", r.p99_ms)
            .Add("wall_ms", r.wall_ms)
            .Add("mismatches", bad);
        total_requests += r.answered;
        total_bad += bad;
      }
    }
  }
  if (connect.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(tmp_root, ec);
  }

  if (total_bad > 0) {
    std::fprintf(stderr,
                 "%llu mismatching/failed responses out of %llu\n",
                 static_cast<unsigned long long>(total_bad),
                 static_cast<unsigned long long>(total_requests));
    return 1;
  }
  std::printf("differential check: %llu routed responses matched the "
              "single in-process QueryServer\n",
              static_cast<unsigned long long>(total_requests));
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}
