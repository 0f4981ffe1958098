#include "load.h"

#include <string>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "obs/trace.h"

namespace perfbench {

using namespace gtpq;

namespace {

void AddError(LoadResult* out, const Status& status) {
  if (out->errors.size() < 4) out->errors.push_back(status.ToString());
}

}  // namespace

uint64_t ResultDigest(const QueryResult& result) {
  // FNV-1a over the ids, with a separator after each tuple.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (QNodeId q : result.output_nodes) mix(q);
  mix(~0ULL);
  for (const ResultTuple& t : result.tuples) {
    for (NodeId v : t) mix(v);
    mix(~0ULL);
  }
  return h;
}

LoadResult RunLoad(const LoadOptions& o, const Inputs& in) {
  LoadResult load;
  load.window_s = o.window_s;
  net::NetClient client;
  Status connected = net::ConnectWithRetry(&client, "127.0.0.1", o.port);
  if (!connected.ok()) {
    AddError(&load, connected);
    load.attempted += 1;
    load.failed += 1;
    return load;
  }
  const double window_start = NowSeconds() + o.warmup_s;
  const double window_end = window_start + o.window_s;
  struct InFlight {
    bool busy = false;
    uint64_t request_id = 0;
    uint32_t query = 0;
    double sent = 0;
    bool counted = false;  // sent inside the window
  };
  std::vector<InFlight> slots(o.outstanding);
  size_t busy = 0;
  size_t next = 0;
  // Sends the next stream entry from `slot`. A failed send leaves the
  // slot idle; the loop ends when no slot is busy.
  auto send = [&](size_t slot) {
    InFlight& f = slots[slot];
    f.query = in.stream[next++ % in.stream.size()];
    f.sent = NowSeconds();
    f.counted = f.sent >= window_start;
    if (f.counted) ++load.attempted;
    auto id = client.SendQuery(in.texts[f.query], o.result_limit,
                               /*parallelism=*/0,
                               o.traced ? obs::NewTraceId() : 0);
    if (!id.ok()) {
      AddError(&load, id.status());
      if (f.counted) ++load.failed;
      return;
    }
    f.busy = true;
    f.request_id = *id;
    ++busy;
  };
  for (size_t slot = 0; slot < slots.size(); ++slot) send(slot);
  while (busy > 0) {
    Result<net::Frame> frame = client.Receive();
    const double received = NowSeconds();
    if (!frame.ok()) {  // the stream is gone: nothing more arrives
      AddError(&load, frame.status());
      for (const InFlight& f : slots) {
        if (f.busy && f.counted) ++load.failed;
      }
      return load;
    }
    size_t slot = 0;
    while (slot < slots.size() &&
           !(slots[slot].busy && slots[slot].request_id == frame->request_id)) {
      ++slot;
    }
    if (slot == slots.size()) continue;  // not a query of this loop
    InFlight& f = slots[slot];
    f.busy = false;
    --busy;
    Status status =
        frame->type == net::FrameType::kError
            ? net::DecodeError(frame->payload)
        : frame->type != net::FrameType::kResult
            ? Status::Internal(std::string("expected RESULT, got ") +
                               net::FrameTypeName(frame->type))
            : Status::OK();
    net::WireResult result;
    const double decode_start = NowSeconds();
    if (status.ok()) status = net::DecodeResult(frame->payload, &result);
    const double decode_end = NowSeconds();
    if (!status.ok()) {
      AddError(&load, status);
      if (f.counted) ++load.failed;
    } else {
      if (f.counted && received <= window_end) {
        load.query_ms.push_back((received - f.sent) * 1e3);
        load.decode_us.push_back((decode_end - decode_start) * 1e6);
      }
      if (o.traced) {
        load.spans.push_back(RequestSpan{f.request_id, slot, f.sent,
                                         received});
      }
      load.answers.push_back(Answer{f.query, result.result.tuples.size(),
                                    ResultDigest(result.result)});
    }
    if (received < window_end) send(slot);
  }
  return load;
}

}  // namespace perfbench
