#include "cluster/partition_map.h"

#include <algorithm>

#include "storage/index_io.h"
#include "storage/serializer.h"

namespace gtpq {
namespace cluster {

using storage::Reader;
using storage::Writer;

size_t PartitionMap::ShardOf(NodeId v) const {
  // Ranges tile [0, n) in ascending order (Validate enforces it), so
  // binary search on begin finds the candidate range directly.
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), static_cast<uint64_t>(v),
      [](uint64_t value, const ShardRange& r) { return value < r.begin; });
  if (it == ranges.begin()) return num_shards();
  const size_t s = static_cast<size_t>(it - ranges.begin()) - 1;
  return v < ranges[s].end ? s : num_shards();
}

Status PartitionMap::Validate() const {
  if (ranges.empty()) {
    return Status::ParseError("partition map has no shards");
  }
  if (endpoints.size() != ranges.size() ||
      shard_fingerprints.size() != ranges.size()) {
    return Status::ParseError(
        "partition map per-shard vectors disagree on the shard count");
  }
  if (ranges.front().begin != 0) {
    return Status::ParseError(
        "partition map leaves vertex 0 uncovered (first range starts at " +
        std::to_string(ranges.front().begin) + ")");
  }
  for (size_t s = 0; s < ranges.size(); ++s) {
    if (ranges[s].begin > ranges[s].end) {
      return Status::ParseError("partition map shard " + std::to_string(s) +
                                " has an inverted range");
    }
    if (s + 1 < ranges.size()) {
      if (ranges[s + 1].begin < ranges[s].end) {
        return Status::ParseError(
            "partition map shards " + std::to_string(s) + " and " +
            std::to_string(s + 1) + " have overlapping ranges");
      }
      if (ranges[s + 1].begin > ranges[s].end) {
        return Status::ParseError(
            "partition map leaves vertex " + std::to_string(ranges[s].end) +
            " uncovered (gap between shards " + std::to_string(s) + " and " +
            std::to_string(s + 1) + ")");
      }
    }
  }
  if (ranges.back().end != num_nodes) {
    return Status::ParseError(
        "partition map covers " + std::to_string(ranges.back().end) +
        " of " + std::to_string(num_nodes) + " vertices");
  }
  return overlay.Validate(num_shards(), num_nodes);
}

Status SavePartitionMap(const PartitionMap& map, const std::string& path) {
  if (map.overlay.closure == nullptr) {
    return Status::InvalidArgument(
        "partition map needs an overlay closure before saving (an empty "
        "boundary still has an empty closure)");
  }
  Writer body;
  body.set_pod_align(true);
  body.WriteU64(map.graph_fingerprint);
  body.WriteU64(map.num_nodes);
  body.WriteU64(map.num_edges);
  body.WriteString(map.inner_spec);
  body.WriteU64(map.ranges.size());
  for (const ShardRange& r : map.ranges) {
    body.WriteU64(r.begin);
    body.WriteU64(r.end);
  }
  for (const std::string& endpoint : map.endpoints) {
    body.WriteString(endpoint);
  }
  for (const uint64_t fp : map.shard_fingerprints) body.WriteU64(fp);
  map.overlay.Save(&body);

  return storage::WriteFramedFile(path, kMapMagic, kMapFormatVersion,
                                  {&body});
}

Result<PartitionMap> LoadPartitionMap(const std::string& path) {
  std::string bytes;
  GTPQ_RETURN_NOT_OK(storage::ReadWholeFile(path, "map", &bytes));
  GTPQ_RETURN_NOT_OK(storage::CheckFraming(bytes, kMapMagic,
                                           kMapFormatVersion, "map", path));
  Reader r(std::string_view(bytes).substr(storage::kFramedOffset));
  r.set_pod_align(true);
  PartitionMap map;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.graph_fingerprint));
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.num_nodes));
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.num_edges));
  GTPQ_RETURN_NOT_OK(r.ReadString(&map.inner_spec));
  uint64_t num_shards = 0;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&num_shards));
  // Every shard costs at least its two range words.
  if (num_shards > r.remaining() / 16) {
    return Status::ParseError("map shard count is implausible");
  }
  map.ranges.resize(static_cast<size_t>(num_shards));
  for (ShardRange& range : map.ranges) {
    GTPQ_RETURN_NOT_OK(r.ReadU64(&range.begin));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&range.end));
  }
  map.endpoints.resize(map.ranges.size());
  for (std::string& endpoint : map.endpoints) {
    GTPQ_RETURN_NOT_OK(r.ReadString(&endpoint));
  }
  map.shard_fingerprints.resize(map.ranges.size());
  for (uint64_t& fp : map.shard_fingerprints) {
    GTPQ_RETURN_NOT_OK(r.ReadU64(&fp));
  }
  auto overlay = BoundaryOverlay::Load(&r, map.num_shards(), map.num_nodes);
  GTPQ_RETURN_NOT_OK(overlay.status());
  map.overlay = overlay.TakeValue();
  GTPQ_RETURN_NOT_OK(r.ExpectEnd());
  GTPQ_RETURN_NOT_OK(map.Validate());
  return map;
}

Status VerifyShardIndex(const PartitionMap& map, size_t shard,
                        const std::string& index_path) {
  if (shard >= map.num_shards()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " does not exist in the map");
  }
  auto info = storage::InspectReachabilityIndex(index_path);
  GTPQ_RETURN_NOT_OK(info.status());
  if (info->graph_fingerprint != map.shard_fingerprints[shard]) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) +
        " index was built for a different subgraph (index fingerprint " +
        std::to_string(info->graph_fingerprint) + ", map expects " +
        std::to_string(map.shard_fingerprints[shard]) + "): " + index_path);
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace gtpq
