#include "verify.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "baselines/naive.h"
#include "common/logging.h"
#include "core/gtea.h"
#include "reachability/factory.h"
#include "reachability/transitive_closure.h"

namespace perfbench {

using namespace gtpq;

namespace {

/// Runs fn(i) for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, size_t threads, Fn&& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, std::min(threads, n)); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Checks `answers` against reference(query), computed once per
/// distinct query on up to `threads` threads.
template <typename Reference>
VerifyReport Check(const Inputs& in, const std::vector<Answer>& answers,
                   size_t threads, Reference&& reference) {
  std::vector<uint32_t> ids;
  for (const Answer& a : answers) ids.push_back(a.query);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  // Reference results are reduced to the digest the reader kept.
  std::vector<Answer> expected(ids.size());
  ParallelFor(ids.size(), threads, [&](size_t i) {
    const QueryResult r = reference(in.queries[ids[i]]);
    expected[i] = Answer{ids[i], r.tuples.size(), ResultDigest(r)};
  });
  VerifyReport report;
  report.answers = answers.size();
  for (const Answer& a : answers) {
    ++report.checked;
    const size_t i =
        std::lower_bound(ids.begin(), ids.end(), a.query) - ids.begin();
    if (a.tuples == expected[i].tuples && a.digest == expected[i].digest) {
      continue;
    }
    if (report.mismatches++ == 0) {
      report.first_mismatch =
          "query #" + std::to_string(a.query) + " (" + in.kinds[a.query] +
          "): served " + std::to_string(a.tuples) + " tuples, reference " +
          std::to_string(expected[i].tuples) +
          (a.tuples == expected[i].tuples ? " (tuples differ)" : "");
    }
  }
  return report;
}

}  // namespace

VerifyReport VerifyBruteForce(const DataGraph& g, const Inputs& in,
                              const std::vector<Answer>& answers,
                              size_t threads) {
  const TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  return Check(in, answers, threads, [&](const Gtpq& q) {
    return EvaluateBruteForce(g, tc, q);
  });
}

VerifyReport VerifyLimited(const DataGraph& g, const Inputs& in,
                           const std::vector<Answer>& answers, uint64_t limit,
                           size_t threads) {
  std::shared_ptr<const ReachabilityOracle> tc = MakeReachabilityIndex(
      ReachabilityBackend::kTransitiveClosure, g.graph());
  GteaOptions options;
  options.result_limit = limit;
  options.contour_matching_graph = false;
  return Check(in, answers, threads, [&](const Gtpq& q) {
    return GteaEngine(g, tc).Evaluate(q, options);
  });
}

}  // namespace perfbench
