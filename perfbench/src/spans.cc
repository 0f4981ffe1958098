#include "spans.h"

#include <unordered_map>

#include "bench_util.h"
#include "obs/trace.h"

namespace perfbench {

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t key) {
  SpanRecord span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = name;
  span.key = key;
  span.start_us = NowSeconds() * 1e6;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End() {
  SpanRecord& span = spans_[open_.back()];
  span.dur_us = NowSeconds() * 1e6 - span.start_us;
  children_.erase(children_.lower_bound({span.id, std::string()}),
                  children_.lower_bound({span.id + 1, std::string()}));
  open_.pop_back();
}

void SpanRecorder::Leaf(const char* name, double start_us, double dur_us) {
  const uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
  auto& [count, folded] = children_[{parent, name}];
  if (++count <= kMaxChildrenPerName) {
    SpanRecord span;
    span.id = next_id_++;
    span.parent = parent;
    span.name = name;
    span.start_us = start_us;
    span.dur_us = dur_us;
    spans_.push_back(std::move(span));
    folded = spans_.size() - 1;
    return;
  }
  if (count == kMaxChildrenPerName + 1) {
    // Start the folded span for every further call under this parent.
    SpanRecord span;
    span.id = next_id_++;
    span.parent = parent;
    span.name = name;
    span.start_us = start_us;
    span.dur_us = 0;
    span.calls = 0;
    spans_.push_back(std::move(span));
    folded = spans_.size() - 1;
  }
  spans_[folded].dur_us += dur_us;
  spans_[folded].calls += 1;
}

void SpanRecorder::Root(const std::string& name, uint64_t key, uint64_t row,
                        double start_us, double dur_us) {
  SpanRecord span;
  span.id = next_id_++;
  span.name = name;
  span.key = key;
  span.row = row;
  span.start_us = start_us;
  span.dur_us = dur_us;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanRecorder::SelfMillis() const {
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) {
    auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0 : it->second;
    out[s.name] += (s.dur_us - covered) / 1e3;
  }
  return out;
}

std::string SpanRecorder::ChromeTraceJson() const {
  gtpq::obs::ProcessSpans process{"perfbench", 1, {}};
  process.spans.reserve(spans_.size());
  for (const SpanRecord& s : spans_) {
    gtpq::obs::Span span;
    span.span_id = s.id;
    span.parent_span = s.parent;
    span.name = s.name;
    if (s.key != 0) span.name += " #" + std::to_string(s.key);
    if (s.calls != 1) span.name += " x" + std::to_string(s.calls);
    span.start_us = s.start_us;
    span.dur_us = s.dur_us;
    span.tid = static_cast<uint32_t>(s.row);
    process.spans.push_back(std::move(span));
  }
  return gtpq::obs::RenderChromeTrace({process});
}

}  // namespace perfbench
