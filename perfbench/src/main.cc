// Serving benchmark for the GTPQ server: drives NetClient -> NetServer
// -> QueryServer -> GTEA -> oracle chain with one of two named
// workloads, checks every answer against an independent reference, and
// prints one JSON result line.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--work-dir=<dir>]
//
// --trace=0 measures the end-to-end metrics; --trace=1 is the separate
// traced run that attributes time and work to the modules (see
// perfbench/METRICS.md for every metric and what it should move).
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/gtea.h"
#include "dynamic/stream_gen.h"
#include "layers.h"
#include "load.h"
#include "net/client.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "replay.h"
#include "verify.h"
#include "workloads.h"

using namespace gtpq;
using namespace perfbench;

namespace {

constexpr int kSetups = 5;          // setup_s is the median of these
constexpr double kWarmupS = 1.0;
constexpr size_t kFollowBatches = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc && arg.rfind("--", 0) == 0) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a->seconds > 0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (arg == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

void PrintLine(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
  std::printf("  %-34s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

std::string Count(size_t n) { return "n=" + std::to_string(n); }

/// Fresh, empty directory.
std::string MakeDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
  return path;
}

std::unique_ptr<Deployment> SetUpOrDie(const WorkloadSpec& spec,
                                       const std::string& dir, size_t cores) {
  auto d = SetUp(spec, MakeDir(dir), cores);
  if (!d.ok()) {
    std::fprintf(stderr, "set-up of %s failed: %s\n", spec.name.c_str(),
                 d.status().ToString().c_str());
    std::exit(1);
  }
  return d.TakeValue();
}

VerifyReport Verify(const WorkloadSpec& spec, const Deployment& d,
                    const Inputs& in, const std::vector<Answer>& answers,
                    size_t cores) {
  if (spec.result_limit == 0) return VerifyBruteForce(d.graph, in, answers, cores);
  return VerifyLimited(d.graph, in, answers, spec.result_limit, cores);
}

bool ReportVerification(const VerifyReport& v) {
  std::printf("  verified %llu of %llu answers against the reference, "
              "mismatches %llu\n",
              static_cast<unsigned long long>(v.checked),
              static_cast<unsigned long long>(v.answers),
              static_cast<unsigned long long>(v.mismatches));
  if (!v.ok()) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", v.first_mismatch.c_str());
  }
  return v.ok();
}

// ------------------------------------------------------------ server view

/// STATS plus the process registry, read over the wire (OBSERVE) from
/// the serving endpoint.
struct ServerView {
  ServingStats stats;
  obs::MetricsSnapshot metrics;

  uint64_t Counter(const std::string& prefix) const {
    uint64_t sum = 0;
    for (const auto& [name, value] : metrics.counters) {
      if (name == prefix || name.rfind(prefix + "{", 0) == 0) sum += value;
    }
    return sum;
  }
  obs::Histogram::Snapshot Hist(const std::string& name) const {
    for (const auto& [n, h] : metrics.histograms) {
      if (n == name) return h;
    }
    obs::Histogram::Snapshot empty;
    empty.counts.assign(obs::Histogram::kNumBuckets, 0);
    return empty;
  }
};

ServerView ReadServer(uint16_t port) {
  net::NetClient client;
  GTPQ_CHECK_OK(net::ConnectWithRetry(&client, "127.0.0.1", port));
  ServerView v;
  auto stats = client.Stats();
  GTPQ_CHECK(stats.ok()) << stats.status().ToString();
  v.stats = *stats;
  auto body = client.Observe(net::ObserveKind::kMetricsSnapshot);
  GTPQ_CHECK(body.ok()) << body.status().ToString();
  GTPQ_CHECK_OK(obs::DecodeMetricsSnapshot(*body, &v.metrics));
  return v;
}

double DeltaP50(const ServerView& before, const ServerView& after,
                const std::string& name) {
  obs::Histogram::Snapshot a = after.Hist(name);
  const obs::Histogram::Snapshot b = before.Hist(name);
  for (size_t i = 0; i < a.counts.size() && i < b.counts.size(); ++i) {
    a.counts[i] -= b.counts[i];
  }
  a.sum -= b.sum;
  return a.Quantile(0.5);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

LoadOptions LoadFor(const WorkloadSpec& spec, uint16_t port, size_t cores,
                    double window_s) {
  LoadOptions lo;
  lo.port = port;
  lo.outstanding = std::min(spec.outstanding, cores);
  lo.result_limit = spec.result_limit;
  lo.warmup_s = kWarmupS;
  lo.window_s = window_s;
  return lo;
}

// -------------------------------------------------------------- untraced

int RunUntraced(const Args& args, const WorkloadSpec& spec, size_t cores) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    malloc_trim(0);
    d = SetUpOrDie(spec, args.work_dir + "/setup" + std::to_string(i), cores);
    setup_s.push_back(d->setup_s);
  }
  const Inputs in = MakeInputs(spec, d->graph, args.seed);

  const LoadOptions lo = LoadFor(spec, d->port(), cores, args.seconds);
  const CpuTicks cpu_before = ReadCpuTicks();
  const double cpu_s_before = ProcessCpuSeconds();
  const LoadResult load = RunLoad(lo, in);
  // CPU the whole process (servers and clients) spent per answered
  // query. Unlike wall-clock figures it excludes time the hypervisor
  // gave to other guests, so it stays steady on a shared host.
  const double cpu_ms_per_query =
      Ratio((ProcessCpuSeconds() - cpu_s_before) * 1e3,
            static_cast<double>(load.answers.size()));
  const CpuTicks cpu_after = ReadCpuTicks();
  // The readers keep only a digest per answer, so this is the server's
  // memory (graph, index, pool) and not the benchmark's answer store.
  const double live_mb = LiveMb();
  malloc_trim(0);
  const double rss_mb = ResidentMb();
  d->Stop();

  const size_t n = load.query_ms.size();
  const double qps = static_cast<double>(n) / load.window_s;
  std::printf("workload %s seed %llu: %zu outstanding queries, %.0f s window, "
              "%zu-query catalog\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              lo.outstanding, load.window_s, in.queries.size());
  PrintLine("query_p50_ms", Median(load.query_ms), "ms", Count(n));
  const size_t beyond = SamplesBeyond(n, spec.tail_quantile);
  PrintLine(spec.tail_quantile >= 0.99 ? "query_p99_ms" : "query_p90_ms",
            Quantile(load.query_ms, spec.tail_quantile), "ms",
            Count(n) + ", " + std::to_string(beyond) + " beyond" +
                (beyond < 10 ? " (fewer than 10: not supported)" : ""));
  PrintLine("qps", qps, "1/s", Count(n));
  PrintLine("cpu_ms_per_query", cpu_ms_per_query, "ms",
            Count(load.answers.size()) + ", warmup included");
  PrintLine("error_rate", Ratio(load.failed, load.attempted), "ratio",
            std::to_string(load.failed) + "/" + std::to_string(load.attempted));
  PrintLine("setup_s", Median(setup_s), "s",
            "median of " + std::to_string(kSetups));
  PrintLine("live_mb", live_mb, "MB", "heap in use + file-backed RSS at window end");
  PrintLine("rss_mb", rss_mb, "MB", "VmRSS at window end, after malloc_trim");
  // Time the hypervisor ran other guests on this machine's CPUs: the
  // context that explains a slow run on a shared host.
  PrintLine("host.steal_pct",
            100 * Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
                        static_cast<double>(cpu_after.total - cpu_before.total)),
            "%", "of all CPU time during the run");
  for (const std::string& e : load.errors) {
    std::fprintf(stderr, "operation failed: %s\n", e.c_str());
  }

  const VerifyReport v = Verify(spec, *d, in, load.answers, cores);
  if (!ReportVerification(v)) return 1;
  if (n == 0) {
    std::fprintf(stderr, "no query completed in the window\n");
    return 1;
  }
  std::vector<Metric> metrics = {
      {"query_p50_ms", Median(load.query_ms), "ms"},
      {"qps", qps, "1/s"},
      {"cpu_ms_per_query", cpu_ms_per_query, "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"live_mb", live_mb, "MB"},
  };
  std::printf("%s\n",
              ResultJson(true, load.attempted, load.failed, metrics).c_str());
  return 0;
}

// ---------------------------------------------------------------- traced

int RunTraced(const Args& args, const WorkloadSpec& spec, size_t cores) {
  std::unique_ptr<Deployment> d =
      SetUpOrDie(spec, args.work_dir + "/setup0", cores);
  const Inputs in = MakeInputs(spec, d->graph, args.seed);
  const std::string scratch = MakeDir(args.work_dir + "/layers");

  // 1. Bench-timed PROBE round trips, taken before the load.
  const double probe_rtt =
      ProbeRttP50Us(d->port(), d->graph.NumNodes(), args.seed, 100);

  // 2. The workload again: an untraced half window, then a traced half
  //    window bracketed by STATS/OBSERVE reads.
  LoadOptions lo = LoadFor(spec, d->port(), cores, args.seconds / 2);
  const LoadResult plain = RunLoad(lo, in);
  lo.traced = true;
  lo.warmup_s = 0.2;
  const ServerView before = ReadServer(d->port());
  const double wall_start = NowSeconds();
  LoadResult traced = RunLoad(lo, in);
  const double wall_s = NowSeconds() - wall_start;
  const ServerView after = ReadServer(d->port());

  SpanRecorder spans;
  for (const RequestSpan& r : traced.spans) {
    spans.Root("request.query", r.request_id, 2 + r.slot,
               r.start_s * 1e6, (r.end_s - r.start_s) * 1e6);
  }

  const double dq = static_cast<double>(after.stats.queries - before.stats.queries);
  const double dbatches =
      static_cast<double>(after.stats.batches - before.stats.batches);
  const double dbusy = after.stats.busy_ms - before.stats.busy_ms;
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    m.push_back({name, value, unit});
  };
  // Growth of a (label-summed) registry counter over the traced half.
  auto Delta = [&](const std::string& counter) {
    return static_cast<double>(after.Counter(counter) - before.Counter(counter));
  };
  add("net.queries_per_batch", Ratio(dq, dbatches), "count");
  add("net.client_minus_server_ms",
      Median(traced.query_ms) -
          DeltaP50(before, after, "gtpq_query_latency_us") / 1e3,
      "ms");
  add("net.bytes_per_query",
      Ratio(Delta("gtpq_net_bytes_received_total") +
                Delta("gtpq_net_bytes_sent_total"),
            dq),
      "bytes");
  add("net.decode_us", Median(traced.decode_us), "us");
  add("net.admission_rejected", Delta("gtpq_admission_rejected_total"),
      "count");
  add("runtime.busy_ms_per_query", Ratio(dbusy, dq), "ms");
  add("runtime.pool_utilization",
      Ratio(dbusy, wall_s * 1e3 * static_cast<double>(after.stats.threads)),
      "ratio");
  add("runtime.snapshot_pin_us_p50",
      DeltaP50(before, after, "gtpq_snapshot_pin_us"), "us");

  // 3. In-process replay of the catalog over the served oracle, behind
  //    the forwarding decorator.
  std::shared_ptr<const ReachabilityOracle> served = d->ServedOracle();

  GteaOptions options;
  options.result_limit = spec.result_limit;
  TimedOracle timed(*served, &spans);
  ReplayCounts counts;
  GteaEngine guard(d->graph, served);
  const size_t replay_n = std::min(spec.replay_queries, in.queries.size());
  size_t guard_failures = 0;
  for (size_t i = 0; i < replay_n; ++i) {
    const QueryResult replayed =
        ReplayQuery(d->graph, timed, in.queries[i], options, i, &spans,
                    &counts);
    if (!(replayed == guard.Evaluate(in.queries[i], options))) {
      ++guard_failures;
      std::fprintf(stderr, "replay guard: query #%zu differs from "
                           "GteaEngine::Evaluate\n", i);
    }
  }
  // Stage times are self times; oracle calls have no children, so
  // their totals are their self times too.
  const std::map<std::string, double> self = spans.SelfMillis();
  auto per_query = [&](std::initializer_list<const char*> names) {
    double ms = 0;
    for (const char* name : names) {
      auto it = self.find(name);
      if (it != self.end()) ms += it->second;
    }
    return ms / static_cast<double>(replay_n);
  };
  add("runtime.lane_speedup",
      LaneSpeedup(d->graph, served, in, std::min<size_t>(replay_n, 4),
                  cores, spec.result_limit),
      "ratio");
  add("core.match_ms", per_query({"core.match"}), "ms");
  add("core.prune_down_ms", per_query({"core.prune_down"}), "ms");
  add("core.prune_up_ms", per_query({"core.prune_up"}), "ms");
  add("core.mg_build_ms", per_query({"core.mg_build"}), "ms");
  add("core.mg_reduce_ms", per_query({"core.mg_reduce"}), "ms");
  add("core.enumerate_ms", per_query({"core.enumerate"}), "ms");
  add("core.input_nodes", static_cast<double>(counts.input_nodes), "count");
  add("core.index_lookups", static_cast<double>(counts.index_lookups), "count");
  add("core.intermediate_size", static_cast<double>(counts.intermediate_size),
      "count");
  add("core.result_tuples", static_cast<double>(counts.result_tuples), "count");
  add("core.prune_down_keep",
      Ratio(counts.candidates_after_down, counts.candidates_matched), "ratio");
  add("core.prune_up_keep",
      Ratio(counts.prime_after_up, counts.prime_before_up), "ratio");
  add("core.mg_alive", Ratio(counts.mg_alive, counts.mg_nodes), "ratio");
  add("core.tuples_per_intermediate",
      Ratio(counts.result_tuples, counts.intermediate_size), "ratio");
  const ReachCounts& r = counts.reach;
  add("reach.summarize_targets_ms", per_query({"reach.summarize_targets"}),
      "ms");
  add("reach.summarized_members", static_cast<double>(r.summarized_members),
      "count");
  add("reach.sets_batch_ms", per_query({"reach.sets_batch"}), "ms");
  add("reach.sets_batch_pairs", static_cast<double>(r.sets_batch_pairs), "count");
  add("reach.sets_batch_hit_ratio", Ratio(r.sets_batch_hits, r.sets_batch_pairs),
      "ratio");
  add("reach.set_reaches_batch_ms", per_query({"reach.set_reaches_batch"}),
      "ms");
  add("reach.successors_ms",
      per_query({"reach.prepare_successors", "reach.successors_among"}), "ms");
  add("reach.successor_scans", static_cast<double>(r.successor_scans), "count");
  add("reach.point_probes", static_cast<double>(counts.point_probes), "count");

  // 4. Direct timings of single public calls. The dynamic layer
  //    follows a generated update stream through the bench's own
  //    delta:contour chain.
  UpdateStreamOptions uo;
  uo.rounds = kFollowBatches;
  uo.seed = args.seed;
  const DeltaChain chain =
      FollowUpdates(d->graph, GenerateUpdateStream(d->graph, uo));
  add("dynamic.with_updates_ms", chain.with_updates_ms, "ms");
  add("dynamic.compactions", static_cast<double>(chain.compactions), "count");
  add("dynamic.pending_ops_mean", chain.pending_ops_mean, "count");
  const StorageTiming st = TimeStorage(*d, scratch);
  add("storage.save_ms", st.save_ms, "ms");
  add("storage.load_ms", st.load_ms, "ms");
  add("storage.index_mb", st.index_mb, "MB");
  add("cluster.probe_rtt_p50_us", probe_rtt, "us");
  add("cluster.partition_ms", TimePartitionMs(d->graph, scratch + "/partition"),
      "ms");
  add("query.parse_us", ParseMicros(d->graph, in), "us");
  const double plain_qps =
      static_cast<double>(plain.query_ms.size()) / plain.window_s;
  const double traced_qps =
      static_cast<double>(traced.query_ms.size()) / traced.window_s;
  add("obs.trace_overhead_pct",
      plain_qps > 0 ? 100.0 * (plain_qps - traced_qps) / plain_qps : 0, "%");
  add("baselines.gtea_over_twigstackd",
      spec.kind == WorkloadKind::kXmarkPaper
          ? GteaOverTwigStackD(d->graph, d->ServedOracle(), in)
          : 0,
      "ratio");
  d->Stop();

  // 5. Answers of both halves are checked like the untraced run's.
  std::vector<Answer> answers = plain.answers;
  for (Answer& a : traced.answers) answers.push_back(std::move(a));
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;

  std::printf("workload %s seed %llu (traced): replayed %zu queries, "
              "%zu spans\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              replay_n, spans.spans().size());
  for (const Metric& metric : m) PrintLine(metric.name, metric.value, metric.unit);
  const std::string dump = args.work_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::ofstream(dump) << spans.ChromeTraceJson();
  std::printf("  span dump: %s\n", dump.c_str());

  const VerifyReport v = Verify(spec, *d, in, answers, cores);
  const bool ok = ReportVerification(v) && guard_failures == 0;
  if (!ok) return 1;
  std::printf("%s\n", ResultJson(true, std::max<uint64_t>(attempted, 1),
                                 failed, m)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> [--work-dir=<dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "unknown workload '%s'; known:%s\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  // Router warnings during teardown would interleave with the report.
  SetLogLevel(LogLevel::kError);
  const size_t cores = UsableCores();
  MakeDir(args.work_dir);
  const int rc = args.trace ? RunTraced(args, *spec, cores)
                            : RunUntraced(args, *spec, cores);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(args.work_dir, ec)) {
    if (entry.is_directory()) std::filesystem::remove_all(entry.path(), ec);
  }
  return rc;
}
