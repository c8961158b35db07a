#include "farm/placement.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "workload/popularity.h"

namespace memstream::farm {
namespace {

/// SplitMix64 finalizer: the placement hash. Stateless, so the ring and
/// the lookup agree without sharing tables.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// High-bit tag separating ring-point inputs from title-id inputs.
constexpr std::uint64_t kRingDomainTag = 1ULL << 56;

Status ValidateCommon(const PlacementConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.num_titles < 1) {
    return Status::InvalidArgument("num_titles must be >= 1");
  }
  if (config.replicas < 1 || config.replicas > kMaxReplicas) {
    return Status::InvalidArgument("replicas must be in [1, kMaxReplicas]");
  }
  return Status::OK();
}

}  // namespace

std::uint64_t TitleHash(std::uint64_t seed, std::int64_t title) {
  return Mix64(seed ^ Mix64(static_cast<std::uint64_t>(title)));
}

HashRing::HashRing(std::vector<Point> points) : points_(std::move(points)) {
  assert(!points_.empty() &&
         points_.size() < std::numeric_limits<std::uint32_t>::max());
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash < b.hash || (a.hash == b.hash && a.shard < b.shard);
            });
  const int bits =
      std::max(1, static_cast<int>(std::bit_width(points_.size() - 1)));
  shift_ = 64 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  guide_.resize(buckets + 1);
  // One merged sweep over the sorted points; bucket j's lower edge is
  // j << shift_, and the edge past the last bucket (2^64) is past every
  // point.
  std::size_t i = 0;
  for (std::size_t j = 0; j < buckets; ++j) {
    const std::uint64_t edge = static_cast<std::uint64_t>(j) << shift_;
    while (i < points_.size() && points_[i].hash < edge) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
  guide_[buckets] = static_cast<std::uint32_t>(points_.size());
}

std::size_t HashRing::Successor(std::uint64_t h) const {
  const std::size_t j = static_cast<std::size_t>(h >> shift_);
  const auto first = points_.begin() + guide_[j];
  const auto last = points_.begin() + guide_[j + 1];
  const auto it = std::lower_bound(
      first, last, h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  return static_cast<std::size_t>(it - points_.begin());
}

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kConsistentHash: return "consistent_hash";
    case PlacementPolicy::kPopularityAware: return "popularity_aware";
  }
  return "unknown";
}

Result<std::unique_ptr<ConsistentHashPlacement>>
ConsistentHashPlacement::Create(const PlacementConfig& config) {
  MEMSTREAM_RETURN_IF_ERROR(ValidateCommon(config));
  if (config.virtual_nodes < 1) {
    return Status::InvalidArgument("virtual_nodes must be >= 1");
  }
  // The ring's guide table indexes points with 32-bit entries.
  if (config.virtual_nodes >=
      std::numeric_limits<std::uint32_t>::max() / config.num_shards) {
    return Status::InvalidArgument(
        "num_shards * virtual_nodes must be < 2^32");
  }
  std::vector<HashRing::Point> points;
  points.reserve(
      static_cast<std::size_t>(config.num_shards * config.virtual_nodes));
  for (std::int64_t s = 0; s < config.num_shards; ++s) {
    for (std::int64_t v = 0; v < config.virtual_nodes; ++v) {
      // Tag the ring's hash domain so a vnode's input can never collide
      // with a title id (titles hash the bare id; an untagged (0, v)
      // vnode would hash identically to title v and capture it).
      const std::uint64_t h = Mix64(
          config.seed ^ Mix64(kRingDomainTag |
                              static_cast<std::uint64_t>(s) << 20 |
                              static_cast<std::uint64_t>(v)));
      points.push_back({h, static_cast<std::int32_t>(s)});
    }
  }
  auto placement = std::unique_ptr<ConsistentHashPlacement>(
      new ConsistentHashPlacement(HashRing(std::move(points))));
  placement->num_shards_ = config.num_shards;
  placement->num_titles_ = config.num_titles;
  placement->replicas_ = std::min(config.replicas, config.num_shards);
  placement->seed_ = config.seed;
  return placement;
}

ShardSet ConsistentHashPlacement::Lookup(std::int64_t title) const {
  ShardSet out;
  // First ring point clockwise of the title's hash (wrapping).
  const std::vector<HashRing::Point>& points = ring_.points();
  const std::size_t n = points.size();
  std::size_t at = ring_.Successor(TitleHash(seed_, title));
  for (std::size_t walked = 0;
       walked < n && out.count < static_cast<std::int32_t>(replicas_);
       ++walked, ++at) {
    if (at == n) at = 0;
    const std::int32_t s = points[at].shard;
    if (!out.Contains(s)) {
      out.shard[static_cast<std::size_t>(out.count++)] = s;
    }
  }
  return out;
}

Result<std::unique_ptr<PopularityAwarePlacement>>
PopularityAwarePlacement::Create(const PlacementConfig& config) {
  MEMSTREAM_RETURN_IF_ERROR(ValidateCommon(config));
  if (!(std::isfinite(config.zipf_exponent) && config.zipf_exponent >= 0)) {
    return Status::InvalidArgument("zipf_exponent must be finite and >= 0");
  }
  if (!(config.replication_budget > 0 && config.replication_budget <= 1)) {
    return Status::InvalidArgument("replication_budget must be in (0, 1]");
  }
  auto fitted = workload::FitZipfTwoClass(
      config.num_titles, config.zipf_exponent, config.replication_budget);
  MEMSTREAM_RETURN_IF_ERROR(fitted.status());

  auto placement = std::unique_ptr<PopularityAwarePlacement>(
      new PopularityAwarePlacement());
  placement->num_shards_ = config.num_shards;
  placement->num_titles_ = config.num_titles;
  placement->replicas_ = std::min(config.replicas, config.num_shards);
  placement->seed_ = config.seed;
  placement->fitted_ = fitted.value();
  placement->head_titles_ = std::clamp<std::int64_t>(
      std::llround(fitted.value().x * static_cast<double>(config.num_titles)),
      1, config.num_titles);
  // Replicas sit `step` shards apart so every head title's copies spread
  // across the farm instead of clustering next to its hash.
  placement->step_ =
      std::max<std::int64_t>(1, config.num_shards / placement->replicas_);
  return placement;
}

ShardSet PopularityAwarePlacement::Lookup(std::int64_t title) const {
  ShardSet out;
  const std::int64_t first = static_cast<std::int64_t>(
      TitleHash(seed_, title) % static_cast<std::uint64_t>(num_shards_));
  if (title < head_titles_) {
    for (std::int64_t r = 0;
         r < replicas_ && out.count < static_cast<std::int32_t>(replicas_);
         ++r) {
      const std::int32_t s =
          static_cast<std::int32_t>((first + r * step_) % num_shards_);
      if (!out.Contains(s)) {
        out.shard[static_cast<std::size_t>(out.count++)] = s;
      }
    }
  } else {
    out.shard[0] = static_cast<std::int32_t>(first);
    out.count = 1;
  }
  return out;
}

Result<std::unique_ptr<Placement>> MakePlacement(
    PlacementPolicy policy, const PlacementConfig& config) {
  switch (policy) {
    case PlacementPolicy::kConsistentHash: {
      auto p = ConsistentHashPlacement::Create(config);
      MEMSTREAM_RETURN_IF_ERROR(p.status());
      return Result<std::unique_ptr<Placement>>(std::move(p).value());
    }
    case PlacementPolicy::kPopularityAware: {
      auto p = PopularityAwarePlacement::Create(config);
      MEMSTREAM_RETURN_IF_ERROR(p.status());
      return Result<std::unique_ptr<Placement>>(std::move(p).value());
    }
  }
  return Status::InvalidArgument("unknown placement policy");
}

}  // namespace memstream::farm
