#ifndef GTPQ_BENCH_WIRE_LOAD_H_
#define GTPQ_BENCH_WIRE_LOAD_H_

// Pipelined gtpq-wire load generator shared by bench_net_throughput and
// bench_cluster_throughput: N client threads, each keeping D QUERY
// frames in flight over its own connection, with every answer checked
// against an in-process QueryServer over the same workload.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "graph/data_graph.h"
#include "net/client.h"
#include "query/query_generator.h"
#include "runtime/query_server.h"

namespace gtpq {
namespace bench {

/// Random 5-7 node queries, their wire texts, and the differential
/// baseline: the answers of an in-process QueryServer running `engine`
/// with `threads` workers at the same per-query result limit.
struct WireWorkload {
  std::vector<Gtpq> queries;
  std::vector<std::string> texts;
  std::vector<QueryResult> expected;
};

/// Up to `num_queries` queries; empty when the generator starves.
inline WireWorkload MakeWireWorkload(const DataGraph& g, size_t num_queries,
                                     size_t threads,
                                     const std::string& engine,
                                     uint64_t limit) {
  WireWorkload w;
  for (uint64_t seed = 1;
       w.queries.size() < num_queries && seed < 40 * num_queries; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 5 + seed % 3;
    qo.pc_probability = 0.2;
    qo.output_fraction = 0.6;
    qo.seed = seed * 17 + 3;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) w.queries.push_back(std::move(*q));
  }
  if (w.queries.empty()) return w;
  for (const Gtpq& q : w.queries) {
    w.texts.push_back(q.ToString(g.attr_names()));
  }
  QueryServerOptions ref_options;
  ref_options.num_threads = threads;
  ref_options.engine_spec = engine;
  GteaOptions ref_eval;
  ref_eval.result_limit = static_cast<size_t>(limit);
  QueryServer reference(g, ref_options);
  w.expected = reference.EvaluateBatch(w.queries, nullptr, ref_eval);
  return w;
}

/// One (clients, pipeline) configuration, aggregated over its clients.
struct WireLoadResult {
  /// RESULT responses received (the latency sample count).
  uint64_t answered = 0;
  /// RESULTs that differ from the reference or fail to decode.
  uint64_t mismatches = 0;
  /// Unexpected frames plus requests lost to send/receive failures.
  uint64_t errors = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wall_ms = 0;
};

namespace wire_load_internal {

struct ClientStats {
  std::vector<double> latencies_us;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
};

/// One client connection driving `requests` pipelined queries.
inline ClientStats RunClient(const std::string& host, uint16_t port,
                             const WireWorkload& w, size_t requests,
                             size_t pipeline, uint64_t limit) {
  ClientStats out;
  net::NetClient client;
  // Retry ECONNREFUSED with bounded backoff: in CI the external server
  // may still be binding when the bench launches, and a fixed sleep in
  // the workflow is exactly the race this absorbs.
  const Status connected = net::ConnectWithRetry(&client, host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "client: %s\n", connected.ToString().c_str());
    out.errors = requests;
    return out;
  }
  Timer clock;
  struct InFlight {
    size_t query_index;
    double sent_us;
  };
  std::unordered_map<uint64_t, InFlight> inflight;
  size_t sent = 0, done = 0;

  auto send_next = [&]() -> bool {
    const size_t index = sent % w.texts.size();
    auto id = client.SendQuery(w.texts[index], limit);
    if (!id.ok()) {
      std::fprintf(stderr, "client: %s\n", id.status().ToString().c_str());
      return false;
    }
    inflight.emplace(*id, InFlight{index, clock.ElapsedMicros()});
    ++sent;
    return true;
  };

  for (size_t i = 0; i < std::min(pipeline, requests); ++i) {
    if (!send_next()) {
      out.errors = requests;
      return out;
    }
  }
  while (done < requests) {
    auto frame = client.Receive();
    if (!frame.ok()) {
      std::fprintf(stderr, "client: %s\n",
                   frame.status().ToString().c_str());
      out.errors += requests - done;
      return out;
    }
    const double now_us = clock.ElapsedMicros();
    auto it = inflight.find(frame->request_id);
    if (it == inflight.end() || frame->type != net::FrameType::kResult) {
      ++out.errors;
      if (it != inflight.end()) inflight.erase(it);
    } else {
      out.latencies_us.push_back(now_us - it->second.sent_us);
      net::WireResult result;
      if (!net::DecodeResult(frame->payload, &result).ok() ||
          result.result != w.expected[it->second.query_index]) {
        ++out.mismatches;
      }
      inflight.erase(it);
    }
    ++done;
    // Replenish on EVERY consumed response — error frames included —
    // or the pipeline drains to zero outstanding requests and the
    // next Receive() blocks forever.
    if (sent < requests && !send_next()) {
      out.errors += requests - done;
      return out;
    }
  }
  return out;
}

inline double Percentile(const std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

}  // namespace wire_load_internal

/// Runs `clients` threads against host:port, each sending `requests`
/// QUERY frames (cycling through the workload) with `pipeline` in
/// flight, and aggregates their latencies and failures.
inline WireLoadResult RunWireLoad(const std::string& host, uint16_t port,
                                  const WireWorkload& w, size_t clients,
                                  size_t requests, size_t pipeline,
                                  uint64_t limit) {
  using wire_load_internal::ClientStats;
  std::vector<ClientStats> stats(clients);
  Timer wall;
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        stats[c] = wire_load_internal::RunClient(host, port, w, requests,
                                                 pipeline, limit);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  WireLoadResult out;
  out.wall_ms = wall.ElapsedMillis();
  std::vector<double> latencies;
  for (const ClientStats& s : stats) {
    latencies.insert(latencies.end(), s.latencies_us.begin(),
                     s.latencies_us.end());
    out.mismatches += s.mismatches;
    out.errors += s.errors;
  }
  std::sort(latencies.begin(), latencies.end());
  out.answered = latencies.size();
  out.qps = out.wall_ms > 0 ? 1000.0 * out.answered / out.wall_ms : 0;
  out.p50_ms = wire_load_internal::Percentile(latencies, 0.50) / 1000.0;
  out.p99_ms = wire_load_internal::Percentile(latencies, 0.99) / 1000.0;
  return out;
}

}  // namespace bench
}  // namespace gtpq

#endif  // GTPQ_BENCH_WIRE_LOAD_H_
