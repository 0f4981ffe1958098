// The benchmark's determinism check: two serial replays of one seeded
// catalog over independently built indexes must report identical
// core.* and reach.* counts — the counts later changes may claim.
//
//   replay_determinism_test
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "layers.h"
#include "replay.h"
#include "workloads.h"

using namespace gtpq;
using namespace perfbench;

namespace {

ReplayCounts ReplayOnce(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto d = SetUp(spec, dir, 2);
  GTPQ_CHECK(d.ok()) << d.status().ToString();
  Deployment& dep = **d;
  const Inputs in = MakeInputs(spec, dep.graph, seed);
  const auto oracle = dep.ServedOracle();
  const DataGraph& g = dep.graph;
  SpanRecorder spans;
  TimedOracle timed(*oracle, &spans);
  GteaOptions options;
  options.result_limit = spec.result_limit;
  ReplayCounts counts;
  for (size_t i = 0; i < std::min(spec.replay_queries, in.queries.size()); ++i) {
    ReplayQuery(g, timed, in.queries[i], options, i, &spans, &counts);
  }
  return counts;
}

}  // namespace

int main() {
  constexpr uint64_t kSeed = 11;
  SetLogLevel(LogLevel::kError);
  // Scratch index files go under the working directory (the build
  // directory when run through run.py or ctest).
  const std::string dir =
      (std::filesystem::current_path() /
       ("determinism-" + std::to_string(::getpid())))
          .string();
  int failures = 0;
  for (const char* name : {"xmark-paper", "dag-topk"}) {
    const WorkloadSpec* spec = FindWorkload(name);
    const ReplayCounts a = ReplayOnce(*spec, kSeed, dir + "/a");
    const ReplayCounts b = ReplayOnce(*spec, kSeed, dir + "/b");
    const bool same = a == b && a.queries > 0;
    std::printf("%-12s replayed %llu queries: %s (input %llu, lookups %llu, "
                "probes %llu, tuples %llu)\n",
                name, static_cast<unsigned long long>(a.queries),
                same ? "counts identical" : "COUNTS DIFFER",
                static_cast<unsigned long long>(a.input_nodes),
                static_cast<unsigned long long>(a.index_lookups),
                static_cast<unsigned long long>(a.point_probes),
                static_cast<unsigned long long>(a.result_tuples));
    failures += !same;
  }
  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}
