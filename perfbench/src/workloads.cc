#include "workloads.h"

#include <algorithm>
#include <utility>

#include "bench_util.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "net/client.h"
#include "query/query_generator.h"
#include "reachability/factory.h"
#include "runtime/engine_factory.h"
#include "storage/index_io.h"
#include "workload/xmark.h"
#include "workload/xmark_queries.h"

namespace perfbench {

using namespace gtpq;

namespace {

// Dataset parameters, fixed per workload like the paper's XMark set.
constexpr double kXmarkScale = 0.05;  // ~69k nodes
constexpr size_t kDagNodes = 5000;
// The random-GTPQ catalog is fixed. Per-query cost spans two orders of
// magnitude, so drawing it per seed moved the medians by 16-45%
// between seeds, more than the changes the benchmark must resolve. The
// seed orders the query stream and draws the XMark groups.
constexpr uint64_t kRandomCatalogSeed = 2012;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out(2);
    out[0].name = "xmark-paper";
    out[0].kind = WorkloadKind::kXmarkPaper;
    out[0].outstanding = 1;
    out[0].catalog_size = 36;  // 18 paper templates x 2 group draws
    out[0].replay_queries = 18;
    out[0].tail_quantile = 0.99;  // ~2000 answers in 50 s

    out[1].name = "dag-topk";
    out[1].kind = WorkloadKind::kDagTopk;
    // Two in flight, not four: with four, query_p50_ms followed which
    // queries the seed's order put in one coalesced group.
    out[1].outstanding = 2;
    out[1].result_limit = 64;
    out[1].catalog_size = 48;
    out[1].replay_queries = 6;
    return out;
  }();
  return specs;
}

/// The first HELLO that ends set-up; also rejects a server that fell
/// back to another engine than the one asked for.
Status Hello(uint16_t port, const std::string& engine_must_contain) {
  net::NetClient client;
  Status connected = net::ConnectWithRetry(&client, "127.0.0.1", port);
  if (!connected.ok()) return connected;
  if (client.server_info().engine.find(engine_must_contain) ==
      std::string::npos) {
    return Status::FailedPrecondition("server engine is '" +
                                      client.server_info().engine +
                                      "', expected '" +
                                      engine_must_contain + "'");
  }
  return Status::OK();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

std::shared_ptr<const ReachabilityOracle> Deployment::ServedOracle() const {
  std::shared_ptr<const EngineSnapshot> snap = server->runtime().snapshot();
  const ReachabilityOracle* oracle = snap->oracle();
  return std::shared_ptr<const ReachabilityOracle>(std::move(snap), oracle);
}

void Deployment::Stop() {
  if (server) server->Stop();
}

Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                          const std::string& dir,
                                          size_t cores) {
  const double start = NowSeconds();
  auto d = std::make_unique<Deployment>();
  std::string engine_spec = "gtea";
  std::string expect_engine = "gtea";
  switch (spec.kind) {
    case WorkloadKind::kXmarkPaper: {
      workload::XmarkOptions xo;
      xo.scale = kXmarkScale;
      d->graph = workload::GenerateXmark(xo);
      d->index_spec = "contour";
      const std::string path = dir + "/xmark.gtpqidx";
      auto index = MakeReachabilityIndex(d->index_spec, d->graph.graph());
      if (index == nullptr) return Status::Internal("contour build failed");
      Status saved =
          storage::SaveReachabilityIndex(*index, d->graph.graph(), path);
      if (!saved.ok()) return saved;
      d->index_file = path;
      engine_spec = "gtea:mmap:" + path;
      expect_engine = "contour";
      break;
    }
    case WorkloadKind::kDagTopk: {
      RandomDagOptions go;
      go.num_nodes = kDagNodes;
      go.avg_degree = 2.5;
      go.num_labels = 24;
      go.locality = 0.05;
      go.seed = 7;
      d->graph = RandomDag(go);
      d->index_spec = "contour";
      break;
    }
  }
  net::NetServerOptions options;
  options.runtime.num_threads = cores;
  options.runtime.engine_spec = engine_spec;
  d->server = std::make_unique<net::NetServer>(d->graph, options);
  Status started = d->server->Start();
  if (!started.ok()) return started;
  Status hello = Hello(d->port(), expect_engine);
  if (!hello.ok()) return hello;
  d->setup_s = NowSeconds() - start;
  return d;
}

namespace {

/// The paper's XMark query set: Fig. 7 Q1-Q3, Table 3 Q4-Q8 and
/// Table 4's disjunction/negation variants, each instantiated over
/// seeded person/item groups.
void XmarkCatalog(const WorkloadSpec& spec, const DataGraph& g, Rng* rng,
                  Inputs* in) {
  std::vector<std::string> templates = {"Q1", "Q2", "Q3", "Q4", "Q5",
                                        "Q6", "Q7", "Q8"};
  for (const std::string& name : workload::Exp2QueryNames()) {
    templates.push_back(name);
  }
  while (in->queries.size() < spec.catalog_size) {
    for (const std::string& name : templates) {
      if (in->queries.size() >= spec.catalog_size) break;
      const int pg = static_cast<int>(rng->NextBounded(workload::kNumGroups));
      const int ig = static_cast<int>(rng->NextBounded(workload::kNumGroups));
      const int pg2 = static_cast<int>(rng->NextBounded(workload::kNumGroups));
      Result<workload::XmarkQuery> built = [&]() -> Result<workload::XmarkQuery> {
        if (name == "Q1") return workload::BuildXmarkQ1(g, pg);
        if (name == "Q2") return workload::BuildXmarkQ2(g, pg, ig);
        if (name == "Q3") return workload::BuildXmarkQ3(g, pg, ig, pg2);
        if (name[0] == 'Q') {
          return workload::BuildExp1Query(g, pg, ig, name[1] - '0');
        }
        return workload::BuildExp2Query(g, pg, ig, name);
      }();
      GTPQ_CHECK(built.ok()) << built.status().ToString();
      in->queries.push_back(std::move(built->query));
      in->kinds.push_back(name);
    }
  }
}

/// Random GTPQs of 5-7 nodes grown from the data graph (the Sec. 5.2
/// generator).
void RandomCatalog(const WorkloadSpec& spec, const DataGraph& g,
                   uint64_t seed, Inputs* in) {
  Rng rng(seed);
  for (uint64_t attempt = 0; in->queries.size() < spec.catalog_size &&
                             attempt < 64 * spec.catalog_size;
       ++attempt) {
    QueryGenOptions qo;
    qo.seed = rng.Next();
    qo.num_nodes = 5 + attempt % 3;
    qo.pc_probability = 0.2;
    qo.output_fraction = 0.6;
    qo.predicate_fraction = 0.2;
    qo.disjunction_probability = 0.3;
    qo.negation_probability = 0.2;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    in->queries.push_back(std::move(*q));
    in->kinds.push_back("random");
  }
  GTPQ_CHECK(!in->queries.empty()) << "query generator starved";
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, const DataGraph& g,
                  uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  if (spec.kind == WorkloadKind::kXmarkPaper) {
    XmarkCatalog(spec, g, &rng, &in);
  } else {
    RandomCatalog(spec, g, kRandomCatalogSeed, &in);
  }
  for (const Gtpq& q : in.queries) {
    in.texts.push_back(q.ToString(g.attr_names()));
  }
  // Send order: back-to-back seeded permutations of the catalog, so a
  // window sees every query about equally often.
  std::vector<uint32_t> order(in.queries.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int pass = 0; pass < 64; ++pass) {
    rng.Shuffle(&order);
    in.stream.insert(in.stream.end(), order.begin(), order.end());
  }
  return in;
}

}  // namespace perfbench
