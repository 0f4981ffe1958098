// Network serving throughput: N client threads, each pipelining D
// gtpq-wire QUERY frames over its own TCP connection, against either a
// self-hosted NetServer (default) or an external `gteactl serve`
// (--connect=). Reports qps and p50/p99 request latency per
// (clients, pipeline) configuration, verifies every wire answer
// differentially against an independent in-process QueryServer over
// the same workload, and cross-checks the server's STATS frame against
// the client-side request count.
//
//   --clients=1,2,4            client-thread sweep
//   --pipeline=8               pipelining depth per connection
//   --queries=32               distinct random queries in the pool
//   --requests=256             requests per client per configuration
//   --limit=64                 per-query result cap sent on the wire
//   --threads=4                server pool threads (self-hosted mode)
//   --engine=gtea              server engine spec (self-hosted mode)
//   --connect=host:port        drive an external server instead; the
//                              workload graph is rebuilt locally from
//                              --gen= (must match the server's graph)
//   --gen=dag:2000,7           workload graph generator (--connect mode;
//                              self-hosted mode scales with
//                              GTPQ_BENCH_SCALE like the other benches)
//   --json=<path>              machine-readable rows (CI perf tracking)
//   --quiet                    suppress log output below error level
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/wire_load.h"
#include "common/logging.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/graph_gen_spec.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  const auto json_path = JsonFlag(argc, argv);
  const auto client_flags = SplitFlag(argc, argv, "--clients=", "1,2,4");
  const size_t pipeline = SizeFlag(argc, argv, "--pipeline=", 8);
  const size_t num_queries = SizeFlag(argc, argv, "--queries=", 32);
  const size_t requests = SizeFlag(argc, argv, "--requests=", 256);
  const uint64_t limit = SizeFlag(argc, argv, "--limit=", 64);
  const size_t threads = SizeFlag(argc, argv, "--threads=", 4);
  const auto engine =
      SplitFlag(argc, argv, "--engine=", "gtea").front();
  std::string connect, gen_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) connect = argv[i] + 10;
    if (std::strncmp(argv[i], "--gen=", 6) == 0) gen_spec = argv[i] + 6;
    if (std::strcmp(argv[i], "--quiet") == 0) {
      SetLogLevel(LogLevel::kError);
    }
  }
  if (pipeline == 0 || num_queries == 0 || requests == 0) {
    std::fprintf(stderr, "--pipeline/--queries/--requests must be > 0\n");
    return 2;
  }

  // Workload graph: in --connect mode this MUST regenerate the exact
  // graph the external server was started with — --gen= goes through
  // the same deterministic spec generator `gteactl serve --gen=` uses,
  // so the local differential reference answers over the served graph.
  DataGraph g = [&] {
    if (!gen_spec.empty()) {
      auto generated = workload::GenerateGraphFromSpec(gen_spec);
      if (!generated.ok()) {
        std::fprintf(stderr, "--gen=%s: %s\n", gen_spec.c_str(),
                     generated.status().ToString().c_str());
        std::exit(2);
      }
      return generated.TakeValue();
    }
    RandomDagOptions go;
    go.num_nodes = static_cast<size_t>(1000000 * BenchScale());
    if (go.num_nodes < 2000) go.num_nodes = 2000;
    go.avg_degree = 2.5;
    go.num_labels = 24;
    go.locality = 0.05;
    go.seed = 7;
    return RandomDag(go);
  }();

  // The in-process reference inside the workload is the differential
  // baseline every wire answer is checked against.
  const WireWorkload workload =
      MakeWireWorkload(g, num_queries, threads, engine, limit);
  if (workload.queries.empty()) {
    std::fprintf(stderr, "query generator starved\n");
    return 1;
  }

  // Server: self-hosted unless --connect= points elsewhere.
  std::unique_ptr<net::NetServer> hosted;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (connect.empty()) {
    net::NetServerOptions so;
    so.runtime.num_threads = threads;
    so.runtime.engine_spec = engine;
    hosted = std::make_unique<net::NetServer>(g, so);
    const Status started = hosted->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
      return 1;
    }
    port = hosted->port();
  } else if (!net::ParseHostPort(connect, &host, &port)) {
    std::fprintf(stderr, "malformed --connect= value '%s' (want "
                         "host:port)\n",
                 connect.c_str());
    return 2;
  }

  std::printf("Network serving throughput: %zu-node graph, %zu-query "
              "pool, pipeline %zu, %zu requests/client — %s:%u\n",
              g.NumNodes(), workload.queries.size(), pipeline, requests,
              host.c_str(), port);
  std::printf("%8s %10s %12s %10s %10s %10s\n", "clients", "requests",
              "qps", "p50 ms", "p99 ms", "wall ms");

  JsonReport report("net_throughput");
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("pool_queries",
                 static_cast<uint64_t>(workload.queries.size()));
  report.AddMeta("pipeline", static_cast<uint64_t>(pipeline));
  report.AddMeta("result_limit", limit);

  uint64_t total_requests = 0, total_mismatches = 0, total_errors = 0;
  for (const std::string& flag : client_flags) {
    const size_t clients = std::strtoull(flag.c_str(), nullptr, 10);
    if (clients == 0) {
      std::fprintf(stderr, "invalid --clients entry '%s'\n", flag.c_str());
      return 2;
    }
    const WireLoadResult r =
        RunWireLoad(host, port, workload, clients, requests, pipeline, limit);
    std::printf("%8zu %10llu %12.0f %10.2f %10.2f %10.1f%s\n", clients,
                static_cast<unsigned long long>(r.answered), r.qps, r.p50_ms,
                r.p99_ms, r.wall_ms,
                r.mismatches + r.errors > 0 ? "  [MISMATCHES]" : "");
    report.AddRow()
        .Add("clients", static_cast<uint64_t>(clients))
        .Add("requests", r.answered)
        .Add("queries_per_sec", r.qps)
        .Add("p50_ms", r.p50_ms)
        .Add("p99_ms", r.p99_ms)
        .Add("wall_ms", r.wall_ms)
        .Add("mismatches", r.mismatches + r.errors);
    total_requests += r.answered;
    total_mismatches += r.mismatches;
    total_errors += r.errors;
  }

  // The STATS frame and this report must agree: the server-side query
  // counter is exactly the requests this process pushed (self-hosted
  // servers serve nobody else).
  net::NetClient stats_client;
  if (net::ConnectWithRetry(&stats_client, host, port).ok()) {
    auto stats = stats_client.Stats();
    if (stats.ok()) {
      std::printf("server stats: engine %s, epoch %llu, %llu queries in "
                  "%llu batches (busy %.1f ms)\n",
                  stats->engine.c_str(),
                  static_cast<unsigned long long>(stats->epoch),
                  static_cast<unsigned long long>(stats->queries),
                  static_cast<unsigned long long>(stats->batches),
                  stats->busy_ms);
      if (hosted != nullptr && stats->queries != total_requests) {
        std::fprintf(stderr,
                     "STATS mismatch: server saw %llu queries, clients "
                     "sent %llu\n",
                     static_cast<unsigned long long>(stats->queries),
                     static_cast<unsigned long long>(total_requests));
        return 1;
      }
    }
  }

  if (total_mismatches + total_errors > 0) {
    std::fprintf(stderr,
                 "%llu mismatching / %llu failed responses out of %llu\n",
                 static_cast<unsigned long long>(total_mismatches),
                 static_cast<unsigned long long>(total_errors),
                 static_cast<unsigned long long>(total_requests));
    return 1;
  }
  std::printf("differential check: %llu wire responses matched the "
              "in-process QueryServer\n",
              static_cast<unsigned long long>(total_requests));
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}
