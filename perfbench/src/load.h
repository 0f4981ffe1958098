#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/eval_types.h"
#include "workloads.h"

namespace perfbench {

struct LoadOptions {
  uint16_t port = 0;
  /// QUERYs the reader keeps in flight on its one connection.
  size_t outstanding = 1;
  uint64_t result_limit = 0;
  /// Load runs unmeasured for warmup_s, then measures for window_s.
  double warmup_s = 1.0;
  double window_s = 10.0;
  /// Sends a wire trace id with every QUERY and records one bench-side
  /// "request" span per answer.
  bool traced = false;
};

/// One answered QUERY, kept for verification after the window. Only a
/// digest of the result is kept, so the benchmark's own memory stays
/// small and does not grow with qps or result size.
struct Answer {
  uint32_t query = 0;
  uint64_t tuples = 0;
  uint64_t digest = 0;
};

/// Order-sensitive hash of a result's output nodes and tuples. Served
/// and reference results are both normalized, so equal results have
/// equal digests.
uint64_t ResultDigest(const gtpq::QueryResult& result);

/// One QUERY as the bench saw it (traced runs only).
struct RequestSpan {
  uint64_t request_id = 0;  // on the wire
  /// The reader's in-flight slot; spans of one slot never overlap.
  size_t slot = 0;
  double start_s = 0;
  double end_s = 0;
};

struct LoadResult {
  /// Client-observed latencies of queries completed in the window.
  std::vector<double> query_ms;
  std::vector<double> decode_us;
  /// Queries sent in the window.
  uint64_t attempted = 0;
  /// ERROR frames, wire failures and unanswered operations among them.
  uint64_t failed = 0;
  double window_s = 0;
  /// Every answered query, warmup included.
  std::vector<Answer> answers;
  std::vector<RequestSpan> spans;
  std::vector<std::string> errors;  // first few, for the report
};

/// Drives the closed-loop reader against the server on `options.port`
/// and returns what it observed. The reader pipelines `outstanding`
/// QUERYs on one connection and sends the next one as each answer
/// arrives, so queries answered together are sent again back to back
/// and coalesce into one group again.
LoadResult RunLoad(const LoadOptions& options, const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
