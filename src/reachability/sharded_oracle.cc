#include "reachability/sharded_oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "reachability/factory.h"
#include "storage/index_io.h"

namespace gtpq {

ShardedOracle::ShardedOracle(const Digraph& g, ShardedOracleOptions options)
    : inner_spec_(std::move(options.inner_spec)),
      name_("sharded:" + inner_spec_) {
  GTPQ_CHECK(g.finalized());
  const size_t n = g.NumNodes();
  num_shards_ = std::max<size_t>(
      1, std::min(options.num_shards, std::max<size_t>(n, 1)));

  if (!options.custom_starts.empty()) {
    GTPQ_CHECK(options.custom_starts.size() == num_shards_ + 1)
        << "custom_starts must carry num_shards + 1 cut points";
    GTPQ_CHECK(options.custom_starts.front() == 0 &&
               options.custom_starts.back() == n)
        << "custom_starts must span [0, n)";
    for (size_t s = 0; s < num_shards_; ++s) {
      GTPQ_CHECK(options.custom_starts[s] <= options.custom_starts[s + 1])
          << "custom_starts must be monotone";
    }
    shard_start_ = options.custom_starts;
  } else {
    shard_start_.resize(num_shards_ + 1);
    for (size_t s = 0; s <= num_shards_; ++s) {
      shard_start_[s] = s * n / num_shards_;
    }
  }

  overlay_ = BoundaryOverlay::Derive(g, shard_start_);
  sub_.resize(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) BuildShard(g, s);
  overlay_.Close();
}

size_t ShardedOracle::ShardOf(NodeId v) const {
  // shard_start_ is sorted with shard_start_[0] == 0; find the range
  // containing v. num_shards_ is small, but binary search anyway.
  size_t s = static_cast<size_t>(
      std::upper_bound(shard_start_.begin(), shard_start_.end(),
                       static_cast<size_t>(v)) -
      shard_start_.begin());
  return s - 1;
}

void ShardedOracle::BuildShard(const Digraph& g, size_t shard) {
  const size_t start = shard_start_[shard];
  const size_t end = shard_start_[shard + 1];

  Digraph local(end - start);
  for (NodeId v = start; v < end; ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (w >= start && w < end) {
        local.AddEdge(LocalId(v, shard), LocalId(w, shard));
      }
    }
  }
  local.Finalize();
  sub_[shard] = MakeReachabilityIndex(inner_spec_, local);
  GTPQ_CHECK(sub_[shard] != nullptr);

  // Overlay contribution: intra-shard reachability between this shard's
  // boundary vertices, diagonal included (see BoundaryOverlay).
  const auto [first, last] = BoundaryIds(shard);
  const std::vector<NodeId>& boundary = overlay_.boundary;
  BoundaryOverlay::IdPairs contribution;
  for (uint32_t b1 = first; b1 < last; ++b1) {
    const NodeId l1 = LocalId(boundary[b1], shard);
    for (uint32_t b2 = first; b2 < last; ++b2) {
      if (sub_[shard]->Reaches(l1, LocalId(boundary[b2], shard))) {
        contribution.emplace_back(b1, b2);
      }
    }
  }
  overlay_.contributions[shard] = std::move(contribution);
}

void ShardedOracle::RebuildShard(const Digraph& g, size_t shard) {
  GTPQ_CHECK(shard < num_shards_);
  GTPQ_CHECK(g.NumNodes() == shard_start_.back());
  BuildShard(g, shard);
  overlay_.Close();
}

bool ShardedOracle::Reaches(NodeId from, NodeId to) const {
  IndexStats& st = stats();
  ++st.queries;

  // Delta-samples a sub-oracle probe so #index aggregates the work of
  // whichever labelings the routed query actually touched.
  auto probe = [&st](const ReachabilityOracle& oracle, NodeId a,
                     NodeId b) {
    const uint64_t before = oracle.stats().elements_looked_up;
    const bool r = oracle.Reaches(a, b);
    st.elements_looked_up += oracle.stats().elements_looked_up - before;
    return r;
  };

  const size_t su = ShardOf(from);
  const size_t sv = ShardOf(to);
  const NodeId lu = LocalId(from, su);
  const NodeId lv = LocalId(to, sv);
  if (su == sv && probe(*sub_[su], lu, lv)) return true;

  // Exits of `from` through its own sub-index, then entries of `to`
  // through its; a shard without boundary vertices admits neither.
  const std::vector<NodeId>& boundary = overlay_.boundary;
  ProbeScratch& scratch = scratch_.Local();
  overlay_.CollectPorts(
      BoundaryIds(su), from,
      [&](uint32_t b) {
        return probe(*sub_[su], lu, LocalId(boundary[b], su));
      },
      &scratch.exits);
  if (scratch.exits.empty()) return false;
  overlay_.CollectPorts(
      BoundaryIds(sv), to,
      [&](uint32_t b) {
        return probe(*sub_[sv], LocalId(boundary[b], sv), lv);
      },
      &scratch.entries);
  if (scratch.entries.empty()) return false;

  const TransitiveClosure& closure = *overlay_.closure;
  const uint64_t before = closure.stats().elements_looked_up;
  const bool connected = overlay_.Connects(scratch.exits, scratch.entries);
  st.elements_looked_up += closure.stats().elements_looked_up - before;
  return connected;
}

void ShardedOracle::SaveBody(storage::Writer* w) const {
  w->WriteU64(num_shards_);
  w->WriteString(inner_spec_);
  std::vector<uint64_t> starts(shard_start_.begin(), shard_start_.end());
  w->WritePodVec(starts);
  overlay_.Save(w);
  for (const auto& sub : sub_) {
    // Sub-indexes were built through the factory, so this dispatch
    // cannot hit an unknown spec.
    GTPQ_CHECK(storage::SaveOracleBody(*sub, w).ok());
  }
}

Result<std::unique_ptr<ShardedOracle>> ShardedOracle::LoadBody(
    storage::Reader* r) {
  auto oracle = std::unique_ptr<ShardedOracle>(new ShardedOracle());
  uint64_t num_shards = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_shards));
  GTPQ_RETURN_NOT_OK(r->ReadString(&oracle->inner_spec_));
  oracle->name_ = "sharded:" + oracle->inner_spec_;
  std::vector<uint64_t> starts;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&starts));
  if (num_shards == 0 || starts.size() != num_shards + 1 ||
      starts.front() != 0 || !std::is_sorted(starts.begin(), starts.end())) {
    return Status::ParseError("inconsistent sharded section layout");
  }
  oracle->num_shards_ = static_cast<size_t>(num_shards);
  oracle->shard_start_.assign(starts.begin(), starts.end());
  auto overlay = BoundaryOverlay::Load(r, oracle->num_shards_, starts.back());
  GTPQ_RETURN_NOT_OK(overlay.status());
  oracle->overlay_ = overlay.TakeValue();
  oracle->sub_.resize(oracle->num_shards_);
  for (auto& sub : oracle->sub_) {
    auto loaded = storage::LoadOracleBody(oracle->inner_spec_, r);
    GTPQ_RETURN_NOT_OK(loaded.status());
    sub = loaded.TakeValue();
  }
  return oracle;
}

}  // namespace gtpq
