#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One bench-recorded span. Repeated calls past the per-parent cap are
/// folded into a single span whose `calls` counts them and whose
/// duration is their summed time.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  uint64_t calls = 1;
  /// Free-form key (query index, wire request id).
  uint64_t key = 0;
  /// Timeline row in the dump: 1 for the replay, 2 + slot for wire
  /// requests (RequestSpan::slot), which overlap across slots.
  uint64_t row = 1;
};

/// In-memory span store for the traced run. Not thread-safe: the
/// in-process replay is serial, and the load threads' request spans
/// are merged in after they join.
class SpanRecorder {
 public:
  /// Opens a span under the currently open one and makes it current.
  uint64_t Begin(const std::string& name, uint64_t key = 0);
  /// Closes the current span.
  void End();
  /// Records a finished child of the current span; a parent holding
  /// more than `kMaxChildrenPerName` children of one name folds the
  /// rest into one span.
  void Leaf(const char* name, double start_us, double dur_us);
  /// Records a finished root-level span (wire requests).
  void Root(const std::string& name, uint64_t key, uint64_t row,
            double start_us, double dur_us);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus its direct
  /// children's, summed over all spans of that name (milliseconds).
  std::map<std::string, double> SelfMillis() const;

  /// Chrome trace-event JSON (open in Perfetto or chrome://tracing),
  /// rendered by obs::RenderChromeTrace. A span's key ("#<key>") and a
  /// folded span's call count ("x<calls>") are appended to its name.
  std::string ChromeTraceJson() const;

  static constexpr uint64_t kMaxChildrenPerName = 64;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;  // indices into spans_
  // Per open span: child name -> (child count, folded span index).
  std::map<std::pair<uint64_t, std::string>, std::pair<uint64_t, size_t>>
      children_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
