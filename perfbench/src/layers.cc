#include "layers.h"

#include <filesystem>

#include "baselines/engines.h"
#include "bench_util.h"
#include "cluster/partition.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/gtea.h"
#include "dynamic/delta_overlay.h"
#include "net/client.h"
#include "query/query_parser.h"
#include "reachability/factory.h"
#include "storage/index_io.h"

namespace perfbench {

using namespace gtpq;

StorageTiming TimeStorage(const Deployment& d, const std::string& dir) {
  StorageTiming t;
  std::string file = d.index_file;
  if (file.empty()) {
    auto index = MakeReachabilityIndex(d.index_spec, d.graph.graph());
    GTPQ_CHECK(index != nullptr);
    file = dir + "/built.gtpqidx";
    GTPQ_CHECK_OK(storage::SaveReachabilityIndex(*index, d.graph.graph(), file));
  }
  double start = NowSeconds();
  auto loaded = storage::LoadReachabilityIndexView(file);
  t.load_ms = (NowSeconds() - start) * 1e3;
  GTPQ_CHECK(loaded.ok()) << loaded.status().ToString();
  auto info = storage::InspectReachabilityIndex(file);
  GTPQ_CHECK(info.ok());
  start = NowSeconds();
  GTPQ_CHECK_OK(storage::SaveReachabilityIndex(**loaded, d.graph.graph(),
                                               dir + "/resaved.gtpqidx"));
  t.save_ms = (NowSeconds() - start) * 1e3;
  t.index_mb = static_cast<double>(info->file_bytes) / (1 << 20);
  return t;
}

DeltaChain FollowUpdates(const DataGraph& base,
                         const std::vector<UpdateBatch>& batches) {
  DeltaChain chain;
  std::shared_ptr<const ReachabilityOracle> root =
      MakeReachabilityIndex("delta:contour", base.graph());
  GTPQ_CHECK(root != nullptr);
  auto current = std::dynamic_pointer_cast<const DeltaOverlayOracle>(root);
  GTPQ_CHECK(current != nullptr);
  std::vector<double> ms, pending;
  for (const UpdateBatch& batch : batches) {
    const double start = NowSeconds();
    auto next = current->WithUpdates(batch);
    ms.push_back((NowSeconds() - start) * 1e3);
    GTPQ_CHECK(next.ok()) << next.status().ToString();
    current = *next;
    pending.push_back(static_cast<double>(current->PendingOps()));
  }
  chain.with_updates_ms = Mean(ms);
  chain.pending_ops_mean = Mean(pending);
  chain.compactions = current->compactions();
  return chain;
}

double TimePartitionMs(const DataGraph& g, const std::string& dir) {
  std::filesystem::create_directories(dir);
  cluster::BuildPartitionOptions options;
  options.plan.num_shards = 2;
  options.inner_spec = "interval";
  const double start = NowSeconds();
  auto built = cluster::BuildPartition(g, options, dir);
  const double ms = (NowSeconds() - start) * 1e3;
  GTPQ_CHECK(built.ok()) << built.status().ToString();
  return ms;
}

double ParseMicros(const DataGraph& g, const Inputs& in) {
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& text : in.texts) {
      auto names = std::make_shared<AttrNames>(g.attr_names());
      const double start = NowSeconds();
      auto parsed = ParseQuery(text, names);
      us.push_back((NowSeconds() - start) * 1e6);
      GTPQ_CHECK(parsed.ok()) << parsed.status().ToString();
    }
  }
  return Mean(us);
}

namespace {
template <typename Fn>
double MinMillis(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double start = NowSeconds();
    fn();
    const double ms = (NowSeconds() - start) * 1e3;
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}
}  // namespace

double GteaOverTwigStackD(const DataGraph& g,
                          std::shared_ptr<const ReachabilityOracle> oracle,
                          const Inputs& in) {
  std::unique_ptr<TwigStackDEngine> tsd;
  GteaEngine gtea(g, std::move(oracle));
  double gtea_ms = 0, tsd_ms = 0;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const std::string& kind = in.kinds[i];
    if (kind != "Q1" && kind != "Q2" && kind != "Q3") continue;
    if (!in.queries[i].IsConjunctive()) continue;
    if (tsd == nullptr) tsd = std::make_unique<TwigStackDEngine>(g);
    gtea_ms += MinMillis(3, [&] { gtea.Evaluate(in.queries[i]); });
    tsd_ms += MinMillis(3, [&] { tsd->Evaluate(in.queries[i]); });
  }
  return tsd_ms > 0 ? gtea_ms / tsd_ms : 0;
}

double LaneSpeedup(const DataGraph& g,
                   std::shared_ptr<const ReachabilityOracle> oracle,
                   const Inputs& in, size_t count, size_t lanes,
                   uint64_t limit) {
  GteaEngine engine(g, std::move(oracle));
  GteaOptions serial, parallel;
  serial.result_limit = parallel.result_limit = limit;
  serial.parallelism = 1;
  parallel.parallelism = lanes;
  double one = 0, many = 0;
  for (size_t i = 0; i < std::min(count, in.queries.size()); ++i) {
    one += MinMillis(2, [&] { engine.Evaluate(in.queries[i], serial); });
    many += MinMillis(2, [&] { engine.Evaluate(in.queries[i], parallel); });
  }
  return many > 0 ? one / many : 0;
}

double ProbeRttP50Us(uint16_t port, size_t graph_nodes, uint64_t seed,
                     size_t probes) {
  net::NetClient client;
  GTPQ_CHECK_OK(net::ConnectWithRetry(&client, "127.0.0.1", port));
  Rng rng(seed);
  std::vector<double> us;
  for (size_t i = 0; i < probes; ++i) {
    net::ProbeRequest request;
    request.pivot = static_cast<NodeId>(rng.NextBounded(graph_nodes));
    for (int k = 0; k < 16; ++k) {
      request.ids.push_back(static_cast<NodeId>(rng.NextBounded(graph_nodes)));
    }
    const double start = NowSeconds();
    auto answer = client.Probe(request);
    us.push_back((NowSeconds() - start) * 1e6);
    GTPQ_CHECK(answer.ok()) << answer.status().ToString();
  }
  return Median(us);
}

}  // namespace perfbench
