#ifndef GTPQ_NET_WIRE_H_
#define GTPQ_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/eval_types.h"
#include "obs/trace.h"
#include "runtime/query_server.h"

namespace gtpq {
namespace net {

/// "gtpq-wire v1": the length-prefixed binary protocol the network
/// front-end (net/server.h) speaks. Every frame is
///
///   u32 length       bytes that follow (type + request id + payload
///                    + trailer), bounds-checked against
///                    WireLimits::max_frame_bytes before any allocation
///   u8  type         FrameType
///   u64 request_id   caller-chosen correlation id, echoed verbatim in
///                    the response; responses may arrive out of order
///   ...              payload (length - 13 bytes), per-type layout below
///   u32 crc32        storage::Crc32 over [type, request_id, payload]
///
/// all little-endian via the storage Writer/Reader primitives, so the
/// codec shares its byte order, bounds checking, and checksum flavour
/// with the .gtpqidx on-disk format.
///
/// Request trailer: QUERY, BATCH and PROBE may end with optional
/// fields that are encoded only when set. A request that leaves them
/// unset is byte-identical to the original v1 layout, and a decoder
/// that finds the payload exhausted reads them as 0.
///   trace pair     u64 trace id + u64 parent span id (obs/trace.h),
///                  present only when the trace id is non-zero
///   query trailer  u32 parallelism budget, then the trace pair; the
///                  u32 is present when parallelism is non-zero or a
///                  trace pair follows, so decoding stays positional
///
/// Request payloads:
///   HELLO          u32 magic "GTPW", u32 version
///   QUERY          u64 result_limit, string query text
///                  (query/query_parser.h line format), query trailer
///   BATCH          u64 result_limit, u32 count, count query strings,
///                  query trailer
///   APPLY_UPDATES  string "gtpq-updates v1" text (dynamic/update_io.h)
///   STATS          empty
///   PROBE          u8 direction (0 = does pivot reach ids[i], 1 = does
///                  ids[i] reach pivot), u64 pivot node id, then the
///                  target ids as a NodeId POD vector — the reachability
///                  scatter-gather primitive the cluster router fans out
///                  to shard servers (src/cluster/shard_router.h) — then
///                  a trace pair
///   OBSERVE        u8 kind (0 = Prometheus metrics, 1 = Chrome trace
///                  JSON, 2 = slow-query log, 3 = binary metrics
///                  snapshot, 4 = health report, 5 = binary span dump),
///                  then an optional u64 trace-id filter, encoded only
///                  when non-zero
///
/// Response payloads (type = request type | 0x80, or ERROR):
///   HELLO_OK       u32 magic, u32 version, u64 epoch, u64 graph nodes,
///                  string engine name
///   RESULT         u64 epoch, QueryResult (EncodeQueryResult)
///   BATCH_RESULT   u64 epoch, u32 count, count QueryResults
///   APPLY_OK       u64 epoch, u64 batches applied
///   STATS_RESULT   ServingStats (EncodeServingStats)
///   PROBE_RESULT   u64 epoch, u32 count, packed answer bitmask as a
///                  u8 POD vector of exactly (count + 7) / 8 bytes
///   OBSERVE_RESULT string body (text exposition / JSON / log dump)
///   ERROR          u8 StatusCode, string message
inline constexpr uint32_t kWireMagic = 0x57505447;  // "GTPW" LE
inline constexpr uint32_t kWireVersion = 1;

/// Frame header bytes after the length prefix: type + request id +
/// crc trailer.
inline constexpr size_t kFrameOverhead = 1 + 8 + 4;

enum class FrameType : uint8_t {
  kHello = 0x01,
  kQuery = 0x02,
  kBatch = 0x03,
  kApplyUpdates = 0x04,
  kStats = 0x05,
  kProbe = 0x06,
  kObserve = 0x07,

  kError = 0x7f,
  kHelloOk = 0x81,
  kResult = 0x82,
  kBatchResult = 0x83,
  kApplyOk = 0x84,
  kStatsResult = 0x85,
  kProbeResult = 0x86,
  kObserveResult = 0x87,
};

/// True for the seven request (client -> server) frame types.
bool IsRequestType(uint8_t type);
/// True for any frame type defined by gtpq-wire v1.
bool IsKnownType(uint8_t type);
const char* FrameTypeName(FrameType type);

/// Decoder bounds. Oversized declared lengths are rejected before any
/// buffer grows, so a hostile or corrupt peer cannot balloon memory.
struct WireLimits {
  size_t max_frame_bytes = 16u << 20;
  /// Queries per BATCH frame (admission control, not format).
  uint32_t max_batch_queries = 4096;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  std::string payload;
};

/// Appends one encoded frame to `*out` (length prefix, header, payload,
/// CRC trailer).
void EncodeFrame(FrameType type, uint64_t request_id,
                 std::string_view payload, std::string* out);

/// Incremental frame decoder over one connection's byte stream. Append
/// received bytes, then call Next() until it yields nullopt (need more
/// bytes). A decode error (oversized length, unknown type, CRC
/// mismatch) is FATAL for the stream: framing can no longer be
/// trusted, so the caller must close the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(WireLimits limits = {}) : limits_(limits) {}

  void Append(const char* data, size_t len) { buf_.append(data, len); }

  /// One complete frame, nullopt when more bytes are needed, or a
  /// ParseError that invalidates the stream.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  WireLimits limits_;
  std::string buf_;
  size_t consumed_ = 0;
};

// --- Payload codecs ----------------------------------------------------

std::string EncodeHello();
/// Validates magic + version of a HELLO (or HELLO_OK prefix).
Status DecodeHello(std::string_view payload);

struct HelloOk {
  uint64_t epoch = 0;
  uint64_t graph_nodes = 0;
  std::string engine;
};
std::string EncodeHelloOk(const HelloOk& hello);
Status DecodeHelloOk(std::string_view payload, HelloOk* out);

/// QUERY payload. `parallelism` and `trace` form the query trailer.
struct QueryRequest {
  uint64_t result_limit = 0;
  std::string text;
  /// Requested intra-query lanes (GteaOptions::parallelism); 0 = serial.
  uint32_t parallelism = 0;
  /// Distributed-trace correlation; an inactive context is untraced.
  obs::TraceContext trace = {};
};
std::string EncodeQueryRequest(const QueryRequest& request);
Status DecodeQueryRequest(std::string_view payload, QueryRequest* out);

/// BATCH payload: the QUERY fields with several texts. The server
/// decodes a QUERY into this shape too, as a one-text batch.
struct BatchRequest {
  uint64_t result_limit = 0;
  std::vector<std::string> texts;
  uint32_t parallelism = 0;
  obs::TraceContext trace = {};
};
std::string EncodeBatchRequest(const BatchRequest& request);
Status DecodeBatchRequest(std::string_view payload, const WireLimits& limits,
                          BatchRequest* out);

struct WireResult {
  uint64_t epoch = 0;
  QueryResult result;
};
std::string EncodeResult(const WireResult& result);
Status DecodeResult(std::string_view payload, WireResult* out);

struct WireBatchResult {
  uint64_t epoch = 0;
  std::vector<QueryResult> results;
};
std::string EncodeBatchResult(const WireBatchResult& result);
Status DecodeBatchResult(std::string_view payload, WireBatchResult* out);

struct ApplyOk {
  uint64_t epoch = 0;
  uint64_t batches_applied = 0;
};
std::string EncodeApplyOk(const ApplyOk& apply);
Status DecodeApplyOk(std::string_view payload, ApplyOk* out);

std::string EncodeServingStats(const ServingStats& stats);
Status DecodeServingStats(std::string_view payload, ServingStats* out);

/// One scatter-gather reachability probe: `reverse == false` asks
/// "does pivot reach ids[i]?", `reverse == true` asks "does ids[i]
/// reach pivot?" for every target in order. Node ids are LOCAL to the
/// server's graph; the cluster router translates global ids before
/// fanning out.
struct ProbeRequest {
  bool reverse = false;
  NodeId pivot = 0;
  std::vector<NodeId> ids;
  /// Encoded as the trace pair.
  obs::TraceContext trace = {};
};
std::string EncodeProbeRequest(const ProbeRequest& request);
Status DecodeProbeRequest(std::string_view payload, ProbeRequest* out);

/// Per-target answers as a packed bitmask (bit i of bits[i / 8] answers
/// ids[i]), stamped with the snapshot epoch that answered them.
struct ProbeResult {
  uint64_t epoch = 0;
  uint32_t count = 0;
  std::vector<uint8_t> bits;

  bool Get(size_t i) const { return (bits[i / 8] >> (i % 8)) & 1; }
};
std::string EncodeProbeResult(const ProbeResult& result);
Status DecodeProbeResult(std::string_view payload, ProbeResult* out);

/// What an OBSERVE frame asks the server to export. The rendered kinds
/// (kMetrics/kTrace) federate across the cluster when the serving
/// oracle is an obs::ClusterObservable (the router); the binary kinds
/// (kMetricsSnapshot/kSpans) are the member-side primitives that
/// federation pulls; kHealth is always answered inline on the IO
/// thread so it measures event-loop responsiveness itself.
enum class ObserveKind : uint8_t {
  kMetrics = 0,          // Prometheus text exposition
  kTrace = 1,            // Chrome trace-event JSON
  kSlowlog = 2,          // slow-query log dump
  kMetricsSnapshot = 3,  // binary registry snapshot (obs/federation.h)
  kHealth = 4,           // binary HealthReport
  kSpans = 5,            // binary span dump (obs/federation.h)
};
/// The optional trailing `trace_id` filters kTrace/kSpans exports to
/// one trace; it is encoded only when non-zero.
std::string EncodeObserveRequest(ObserveKind kind, uint64_t trace_id = 0);
Status DecodeObserveRequest(std::string_view payload, ObserveKind* kind,
                            uint64_t* trace_id);

/// OBSERVE_RESULT carries the rendered or binary export verbatim.
std::string EncodeObserveResult(std::string_view body);
Status DecodeObserveResult(std::string_view payload, std::string* out);

/// Lightweight liveness report (OBSERVE kind = kHealth). Answered
/// inline on the server's IO thread — a response proves the event loop
/// is turning, not just that the process exists. Consumed by the
/// router's health prober (the replica-failover seam).
struct HealthReport {
  uint64_t epoch = 0;
  double uptime_seconds = 0;
  /// Requests parked for the dispatch thread at answer time.
  uint64_t queue_depth = 0;
  /// 1 when the runtime's engine spec loaded and the pool is serving.
  uint8_t serving = 0;
  std::string engine;
};
std::string EncodeHealthReport(const HealthReport& report);
Status DecodeHealthReport(std::string_view payload, HealthReport* out);

/// ERROR payload round trip; encoding an OK status is a programming
/// error. DecodeError returns the CARRIED status on success (never OK)
/// and a ParseError when the payload itself is malformed.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload);

}  // namespace net
}  // namespace gtpq

#endif  // GTPQ_NET_WIRE_H_
