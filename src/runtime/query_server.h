#ifndef GTPQ_RUNTIME_QUERY_SERVER_H_
#define GTPQ_RUNTIME_QUERY_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "dynamic/graph_delta.h"
#include "graph/data_graph.h"
#include "obs/trace.h"
#include "query/gtpq.h"
#include "runtime/engine_factory.h"
#include "runtime/thread_pool.h"

namespace gtpq {

/// One coherent picture of a QueryServer's serving state: identity
/// (engine, pool size), the epoch new queries would see, and the
/// cumulative work counters — everything the STATS wire frame and the
/// bench reporters need, gathered in ONE call so the numbers cannot
/// drift apart across piecemeal accessors.
struct ServingStats {
  std::string engine;
  uint64_t epoch = 0;
  uint64_t threads = 0;
  /// Queries answered (EvaluateBatch members).
  uint64_t queries = 0;
  /// EvaluateBatch calls completed.
  uint64_t batches = 0;
  /// ApplyUpdates calls that installed a new snapshot.
  uint64_t updates_applied = 0;
  uint64_t input_nodes = 0;
  uint64_t index_lookups = 0;
  uint64_t intermediate_size = 0;
  uint64_t join_ops = 0;
  /// Sum of per-query evaluation times (not wall clock).
  double busy_ms = 0;
  /// Per-stage engine time sums (EngineStats accumulated across every
  /// query served). Optional trailing fields on the wire; 0 when
  /// reported by an older server.
  double match_ms = 0;
  double prune_down_ms = 0;
  double prime_ms = 0;
  double prune_up_ms = 0;
  double matching_graph_ms = 0;
  double enumerate_ms = 0;
};

struct QueryServerOptions {
  /// Worker threads; each carries one Evaluator.
  size_t num_threads = 4;
  /// Engine spec (everything SharedEngineFactory accepts), e.g.
  /// "gtea", "gtea:cached:contour", "naive", "twigstackd".
  std::string engine_spec = "gtea";
  /// Decomposition-point names seeded into twig engines.
  std::vector<std::string> cross_names = {};
  /// Evaluation options applied to every query.
  GteaOptions eval_options = {};
  /// Auto-compaction tuning for the incremental update path
  /// (gtea specs; see SharedEngineFactory::ApplyUpdates).
  DeltaOverlayOptions delta_options = {};
};

/// Concurrent batch query serving: a fixed ThreadPool whose workers
/// each own one Evaluator, all sharing the spec's immutable index
/// artifacts (built once by SharedEngineFactory). Correctness rests on
/// the two invariants the PR-1/2 refactors established: oracles are
/// read-only after construction with thread-confined counters and
/// scratch, and every Evaluator keeps per-instance stats — so N
/// workers never share mutable state, only the index.
///
/// EvaluateBatch blocks until the whole batch is answered and returns
/// results aligned with the input order. It is safe to call from any
/// thread, including concurrently.
///
/// Live updates: ApplyUpdates() folds an UpdateBatch into a new
/// EngineSnapshot (epoch-based; see SharedEngineFactory) and is safe to
/// call concurrently with queries. Every batch pins the snapshot that
/// was current when it entered, so all of its queries see one
/// consistent graph version — in-flight batches finish on the old
/// epoch while new batches pick up the new one; readers never block
/// the writer and vice versa. Workers re-stamp their engine lazily the
/// first time they serve a query from a newer snapshot.
class QueryServer {
 public:
  /// `g` must outlive the server (it backs the epoch-0 snapshot and
  /// remains the base graph of the incremental oracle overlay). An
  /// unknown engine spec — or one whose artifacts cannot be
  /// materialized, e.g. a file:/mmap: index that is missing, corrupt,
  /// or fingerprinted for a different graph — leaves the server in a
  /// failed state reported by status(); every other method requires
  /// status().ok(). NetServer::Start surfaces the status, so serving
  /// binaries get a one-line error instead of an abort.
  QueryServer(const DataGraph& g, QueryServerOptions options = {});
  ~QueryServer();

  /// OK when the engine spec materialized and the pool is serving.
  const Status& status() const { return status_; }

  size_t num_threads() const { return workers_.size(); }
  std::string_view engine_spec() const { return options_.engine_spec; }
  /// Name reported by engines stamped from the CURRENT snapshot —
  /// "gtea[contour]" at epoch 0, "gtea[delta:contour]" once updates
  /// wrapped the oracle.
  std::string engine_name() const {
    return std::string(factory_->snapshot()->engine_name());
  }

  /// Batch-completion report: which epoch the batch pinned and how long
  /// it took wall-clock. The pinned epoch is otherwise unobservable by
  /// the caller (epoch() may already have advanced under a concurrent
  /// ApplyUpdates), and the network tier stamps every response with it
  /// so clients can correlate answers with graph versions.
  struct BatchInfo {
    uint64_t epoch = 0;
    double wall_ms = 0;
  };

  /// Evaluates the whole batch across the pool with the server's
  /// default evaluation options; (*results)[i] answers queries[i].
  /// Queries must stay alive until the call returns. The batch is
  /// snapshot-consistent: every query sees the epoch current at entry;
  /// `info` (optional) reports that pinned epoch on return.
  std::vector<QueryResult> EvaluateBatch(std::span<const Gtpq> queries,
                                         BatchInfo* info = nullptr);

  /// Same, with per-batch evaluation options overriding the server
  /// defaults (the network tier honors per-request result limits this
  /// way without re-configuring the server) and an optional per-query
  /// trace context (empty = untraced, else one entry per query).
  /// traces[i].parent_span becomes the parent of query i's evaluate
  /// span, and the context is installed thread-locally around
  /// evaluation so downstream code — the cluster router's shard probes
  /// in particular — records child spans with no parameter plumbing.
  std::vector<QueryResult> EvaluateBatch(
      std::span<const Gtpq> queries, BatchInfo* info,
      const GteaOptions& options,
      std::span<const obs::TraceContext> traces = {});

  /// Installs a new serving snapshot with `batch` applied; queries
  /// submitted afterwards see the new graph version. Returns the
  /// validation error (and changes nothing) for malformed batches.
  Status ApplyUpdates(const UpdateBatch& batch);

  /// Point-reachability scatter-gather primitive (the PROBE wire
  /// frame): answers "does pivot reach ids[i]?" (or the reverse when
  /// `reverse`) for every target against ONE pinned snapshot, packing
  /// the answers into a bitmask (bit i of (*bits)[i / 8]) and reporting
  /// the pinned epoch. Answered inline on the calling thread straight
  /// from the snapshot's immutable oracle — no pool dispatch.
  /// FailedPrecondition when the engine spec has no oracle (tuple
  /// baselines); InvalidArgument when pivot or a target id is outside
  /// the snapshot graph.
  Status ProbeReachability(bool reverse, NodeId pivot,
                           std::span<const NodeId> ids, uint64_t* epoch,
                           std::vector<uint8_t>* bits) const;

  /// Epoch of the snapshot new queries would see (0 before any update).
  uint64_t epoch() const { return factory_->epoch(); }
  /// The snapshot new queries would see; pin it to inspect graph().
  std::shared_ptr<const EngineSnapshot> snapshot() const {
    return factory_->snapshot();
  }

  /// One coherent aggregate of identity + counters (see ServingStats).
  /// Safe to call concurrently with queries and updates.
  ServingStats serving_stats() const;

 private:
  // Per-worker slot: engine (bound to `snap`, re-stamped on epoch
  // change) plus its share of the ServingStats work counters (the
  // identity fields stay unset), guarded by a (virtually uncontended)
  // per-worker mutex and padded onto its own cache line.
  // `snap`/`engine` are only touched by the owning pool thread after
  // construction.
  struct alignas(64) Worker {
    std::shared_ptr<const EngineSnapshot> snap;
    std::unique_ptr<Evaluator> engine;
    mutable std::mutex mu;
    ServingStats served;
  };

  QueryResult EvaluateOnWorker(
      const Gtpq& query,
      const std::shared_ptr<const EngineSnapshot>& snap,
      const GteaOptions& options, const obs::TraceContext& trace);

  const DataGraph& g_;
  QueryServerOptions options_;
  Status status_;
  std::unique_ptr<SharedEngineFactory> factory_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> updates_applied_{0};
};

}  // namespace gtpq

#endif  // GTPQ_RUNTIME_QUERY_SERVER_H_
