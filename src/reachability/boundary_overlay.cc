#include "reachability/boundary_overlay.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/serializer.h"

namespace gtpq {

namespace {

// std::pair is not trivially copyable under libstdc++, so pair vectors
// are flattened to interleaved u32 runs for the pod-vector codec.
template <typename T>
std::vector<uint32_t> FlattenPairs(const std::vector<std::pair<T, T>>& pairs) {
  std::vector<uint32_t> flat;
  flat.reserve(pairs.size() * 2);
  for (const auto& [a, b] : pairs) {
    flat.push_back(a);
    flat.push_back(b);
  }
  return flat;
}

template <typename T>
Status ReadPairs(storage::Reader* r, std::vector<std::pair<T, T>>* out) {
  std::vector<uint32_t> flat;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&flat));
  if (flat.size() % 2 != 0) {
    return Status::ParseError("odd-length pair run in boundary overlay");
  }
  out->clear();
  out->reserve(flat.size() / 2);
  for (size_t i = 0; i < flat.size(); i += 2) {
    out->emplace_back(flat[i], flat[i + 1]);
  }
  return Status::OK();
}

}  // namespace

BoundaryOverlay BoundaryOverlay::Derive(const Digraph& g,
                                        std::span<const size_t> starts) {
  GTPQ_CHECK(g.finalized());
  GTPQ_CHECK(!starts.empty() && starts.front() == 0 &&
             starts.back() == g.NumNodes());
  BoundaryOverlay overlay;
  std::vector<char> is_boundary(g.NumNodes(), 0);
  for (size_t s = 0; s + 1 < starts.size(); ++s) {
    for (size_t v = starts[s]; v < starts[s + 1]; ++v) {
      for (NodeId w : g.OutNeighbors(static_cast<NodeId>(v))) {
        if (w < starts[s] || w >= starts[s + 1]) {
          overlay.cross_edges.emplace_back(static_cast<NodeId>(v), w);
          is_boundary[v] = 1;
          is_boundary[w] = 1;
        }
      }
    }
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (is_boundary[v]) overlay.boundary.push_back(v);
  }
  overlay.contributions.resize(starts.size() - 1);
  return overlay;
}

uint32_t BoundaryOverlay::IdOf(NodeId v) const {
  const auto it = std::lower_bound(boundary.begin(), boundary.end(), v);
  if (it == boundary.end() || *it != v) return kNotBoundary;
  return static_cast<uint32_t>(it - boundary.begin());
}

std::pair<uint32_t, uint32_t> BoundaryOverlay::IdRange(uint64_t begin,
                                                       uint64_t end) const {
  const auto first = std::lower_bound(boundary.begin(), boundary.end(),
                                      begin);
  const auto last = std::lower_bound(first, boundary.end(), end);
  return {static_cast<uint32_t>(first - boundary.begin()),
          static_cast<uint32_t>(last - boundary.begin())};
}

void BoundaryOverlay::Close() {
  Digraph overlay(boundary.size());
  for (const auto& [x, y] : cross_edges) overlay.AddEdge(IdOf(x), IdOf(y));
  for (const IdPairs& contribution : contributions) {
    for (const auto& [b1, b2] : contribution) overlay.AddEdge(b1, b2);
  }
  overlay.Finalize();
  closure = std::make_shared<const TransitiveClosure>(
      TransitiveClosure::Build(overlay));
}

bool BoundaryOverlay::Connects(std::span<const uint32_t> exits,
                               std::span<const uint32_t> entries) const {
  for (uint32_t b1 : exits) {
    for (uint32_t b2 : entries) {
      if (closure->Reaches(b1, b2)) return true;
    }
  }
  return false;
}

void BoundaryOverlay::Save(storage::Writer* w) const {
  GTPQ_CHECK(closure != nullptr) << "an overlay is saved only once closed";
  w->WritePodVec(boundary);
  w->WritePodVec(FlattenPairs(cross_edges));
  for (const IdPairs& contribution : contributions) {
    w->WritePodVec(FlattenPairs(contribution));
  }
  closure->SaveBody(w);
}

Result<BoundaryOverlay> BoundaryOverlay::Load(storage::Reader* r,
                                              size_t num_shards,
                                              uint64_t num_nodes) {
  BoundaryOverlay overlay;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&overlay.boundary));
  GTPQ_RETURN_NOT_OK(ReadPairs(r, &overlay.cross_edges));
  overlay.contributions.resize(num_shards);
  for (IdPairs& contribution : overlay.contributions) {
    GTPQ_RETURN_NOT_OK(ReadPairs(r, &contribution));
  }
  auto loaded = TransitiveClosure::LoadBody(r);
  GTPQ_RETURN_NOT_OK(loaded.status());
  overlay.closure =
      std::make_shared<const TransitiveClosure>(loaded.TakeValue());
  GTPQ_RETURN_NOT_OK(overlay.Validate(num_shards, num_nodes));
  return overlay;
}

Status BoundaryOverlay::Validate(size_t num_shards,
                                 uint64_t num_nodes) const {
  const auto bad = [](const std::string& what) {
    return Status::ParseError("boundary overlay: " + what);
  };
  if (contributions.size() != num_shards) {
    return bad(std::to_string(contributions.size()) +
               " contributions for " + std::to_string(num_shards) + " shards");
  }
  for (size_t b = 0; b < boundary.size(); ++b) {
    if (boundary[b] >= num_nodes) {
      return bad("vertex " + std::to_string(boundary[b]) + " out of range");
    }
    if (b > 0 && boundary[b - 1] >= boundary[b]) {
      return bad("vertices not strictly ascending");
    }
  }
  for (const auto& [x, y] : cross_edges) {
    if (IdOf(x) == kNotBoundary || IdOf(y) == kNotBoundary) {
      return bad("cross edge " + std::to_string(x) + " -> " +
                 std::to_string(y) + " leaves the boundary");
    }
  }
  for (const IdPairs& contribution : contributions) {
    for (const auto& [b1, b2] : contribution) {
      if (b1 >= boundary.size() || b2 >= boundary.size()) {
        return bad("contribution id out of range");
      }
    }
  }
  if (closure == nullptr) return bad("closure missing");
  if (closure->NumNodes() != boundary.size()) {
    return bad("closure spans " + std::to_string(closure->NumNodes()) +
               " nodes, the boundary " + std::to_string(boundary.size()));
  }
  return Status::OK();
}

}  // namespace gtpq
