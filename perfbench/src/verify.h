#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/eval_types.h"
#include "graph/data_graph.h"
#include "load.h"
#include "workloads.h"

namespace perfbench {

struct VerifyReport {
  uint64_t answers = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;

  bool ok() const { return mismatches == 0; }
};

/// Unlimited answers: each must equal EvaluateBruteForce over one
/// transitive closure of `g`.
VerifyReport VerifyBruteForce(const gtpq::DataGraph& g, const Inputs& in,
                              const std::vector<Answer>& answers,
                              size_t threads);

/// Limited answers, whose full answers need not fit in memory: each
/// must equal a serial GTEA over the transitive_closure backend with
/// the pairwise matching-graph build, under the same limit. The
/// reference shares neither the served oracle nor the contour
/// matching-graph path.
VerifyReport VerifyLimited(const gtpq::DataGraph& g, const Inputs& in,
                           const std::vector<Answer>& answers,
                           uint64_t limit, size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
