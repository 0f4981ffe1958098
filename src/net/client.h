#ifndef GTPQ_NET_CLIENT_H_
#define GTPQ_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dynamic/graph_delta.h"
#include "net/wire.h"

namespace gtpq {
namespace net {

/// Blocking gtpq-wire v1 client over one TCP connection, shared by the
/// gteactl query/apply subcommands, bench_net_throughput, and the
/// socket-level tests.
///
/// Two usage styles:
///  * synchronous — Query/QueryBatch/ApplyUpdates/Stats send one
///    request and wait for its response (correlated by request id;
///    responses to other outstanding requests are parked, so the sync
///    calls compose with pipelining);
///  * pipelined — SendQuery/SendBatch enqueue without waiting and
///    return the request id; Receive() yields the next response frame
///    (parked first, then off the socket), which the caller correlates
///    via Frame::request_id.
///
/// A synchronous call is its pipelined Send* call plus
/// WaitForResponse, so both styles share one request path.
///
/// One NetClient is thread-confined. Open several clients for
/// concurrent load (see bench_net_throughput).
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to a numeric IPv4 host ("127.0.0.1") and performs the
  /// HELLO handshake; server_info() is valid afterwards.
  Status Connect(const std::string& host, uint16_t port,
                 WireLimits limits = {});
  void Close();
  bool connected() const { return fd_ >= 0; }
  /// HELLO_OK fields captured at Connect (engine, epoch, graph size).
  const HelloOk& server_info() const { return server_info_; }

  // --- Synchronous calls ----------------------------------------------

  /// `text` is the query/query_parser.h line format; result_limit 0
  /// defers to the server's configured cap. `parallelism` requests
  /// intra-query lanes (0 = serial); the server grants it — clamped by
  /// its max_query_parallelism — only when the query is dispatched
  /// alone, and answers are byte-identical either way. A non-zero
  /// `trace_id` (obs::NewTraceId) rides the wire and correlates the
  /// server-side spans; `parent_span` parents them under a caller span.
  Result<WireResult> Query(const std::string& text,
                           uint64_t result_limit = 0,
                           uint32_t parallelism = 0,
                           uint64_t trace_id = 0, uint64_t parent_span = 0);
  Result<WireBatchResult> QueryBatch(const std::vector<std::string>& texts,
                                     uint64_t result_limit = 0,
                                     uint32_t parallelism = 0,
                                     uint64_t trace_id = 0,
                                     uint64_t parent_span = 0);
  /// Applies "gtpq-updates v1" text (dynamic/update_io.h) atomically
  /// batch by batch on the server's live snapshot chain.
  Result<ApplyOk> ApplyUpdates(const std::string& updates_text);
  Result<ApplyOk> ApplyUpdates(std::span<const UpdateBatch> batches);
  Result<ServingStats> Stats();
  /// Reachability scatter-gather probe (see ProbeRequest); node ids are
  /// local to the server's graph.
  Result<ProbeResult> Probe(const ProbeRequest& request);
  /// One observability export (OBSERVE frame): Prometheus metrics,
  /// Chrome trace JSON, the slow-query log, or a binary
  /// snapshot/span/health export. The optional trace_id filters
  /// kTrace/kSpans to one trace (0 = whole ring).
  Result<std::string> Observe(ObserveKind kind, uint64_t trace_id = 0);
  /// Observe(kHealth), decoded. Answered inline on the server's IO
  /// thread, so a response bounds event-loop latency too.
  Result<HealthReport> Health();

  // --- Pipelined calls ------------------------------------------------

  /// Sends without waiting; returns the request id to correlate the
  /// eventual response.
  Result<uint64_t> SendQuery(const std::string& text,
                             uint64_t result_limit = 0,
                             uint32_t parallelism = 0,
                             uint64_t trace_id = 0,
                             uint64_t parent_span = 0);
  Result<uint64_t> SendBatch(const std::vector<std::string>& texts,
                             uint64_t result_limit = 0,
                             uint32_t parallelism = 0,
                             uint64_t trace_id = 0,
                             uint64_t parent_span = 0);
  Result<uint64_t> SendProbe(const ProbeRequest& request);
  /// Pipelined OBSERVE — the router fans one export request out to
  /// every shard, then collects by id.
  Result<uint64_t> SendObserve(ObserveKind kind, uint64_t trace_id = 0);
  /// Next response frame: parked responses first, then a blocking read.
  Result<Frame> Receive();
  /// Blocking wait for the response to one previously-sent request;
  /// responses to other outstanding requests are parked for Receive().
  /// An ERROR frame becomes its carried status, an unexpected response
  /// type a protocol error — same unwrapping as the synchronous calls,
  /// exposed so scatter-gather callers can pipeline several probes and
  /// then collect them by id.
  Result<std::string> WaitForResponse(uint64_t request_id,
                                      FrameType expect);

 private:
  // Socket primitives (Connect and Close too); the only members with
  // a platform-specific body.
  Status SendFrame(FrameType type, uint64_t request_id,
                   std::string_view payload);
  Result<Frame> ReadFrame();

  /// Sends under the next request id and returns it.
  Result<uint64_t> Send(FrameType type, std::string_view payload);
  /// Blocking read of the response carrying `request_id`; responses to
  /// other requests are parked for later Receive() calls. A request-id
  /// 0 ERROR (the server's final word before it closes the connection)
  /// ends the wait with its carried status.
  Result<Frame> WaitFor(uint64_t request_id);
  /// Send + WaitForResponse.
  Result<std::string> RoundTrip(FrameType type, std::string_view payload,
                                FrameType expect);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  WireLimits limits_;
  FrameDecoder decoder_;
  std::deque<Frame> parked_;
  HelloOk server_info_;
};

/// Parses "host:port" (or a bare "port", host defaulting to
/// 127.0.0.1) — the shared syntax of every --connect= flag.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port);

/// Connect() with bounded backoff while the server is still binding:
/// ECONNREFUSED (and ETIMEDOUT) retries up to `attempts` times,
/// sleeping `backoff_ms` then doubling (capped at 500 ms) between
/// tries. Any other failure — bad host, handshake error — returns
/// immediately. Shared by the benches and the cluster router so
/// process-startup races need no external sleeps.
Status ConnectWithRetry(NetClient* client, const std::string& host,
                        uint16_t port, WireLimits limits = {},
                        int attempts = 50, int backoff_ms = 10);

}  // namespace net
}  // namespace gtpq

#endif  // GTPQ_NET_CLIENT_H_
