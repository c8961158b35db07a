// Sharded catalog placement: which shard(s) of the farm hold a copy of
// each title. Two policies, the paper's replicated-vs-striped cache
// tradeoff (§3.2) lifted to farm scale:
//
//  - ConsistentHashPlacement: a virtual-node hash ring over title ids.
//    Every title lives on the `replicas` distinct shards that follow its
//    hash clockwise, so shard joins/leaves move only a 1/num_shards
//    slice of the catalog. With replicas == 1 this is classic consistent
//    hashing: one copy per title, no failover candidates.
//
//  - PopularityAwarePlacement: replicate the head of the Zipf curve
//    across `replicas` shards and hash the tail to a single shard each.
//    The head/tail split is solved from the fitted Zipf exponent via
//    workload::FitZipfTwoClass at the replication budget, so the
//    replicated prefix is exactly the slice of the catalog the budget
//    pays for (Jayarekha & Nair's popularity-aware prefix caching,
//    arXiv:1001.4135, applied to whole-title placement).
//
// Lookup is the admission router's hot path: it returns a fixed-size
// ShardSet by value and performs zero heap allocations (asserted by the
// counting-new harness in placement_test and BM_PlacementLookup).

#ifndef MEMSTREAM_FARM_PLACEMENT_H_
#define MEMSTREAM_FARM_PLACEMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/mems_cache.h"

namespace memstream::farm {

/// Upper bound on copies per title (and so on failover candidates).
inline constexpr std::int32_t kMaxReplicas = 8;

/// The shards holding a copy of one title. Fixed-size value type so the
/// lookup path never touches the heap.
struct ShardSet {
  std::array<std::int32_t, kMaxReplicas> shard{};
  std::int32_t count = 0;

  bool Contains(std::int32_t s) const {
    for (std::int32_t i = 0; i < count; ++i) {
      if (shard[static_cast<std::size_t>(i)] == s) return true;
    }
    return false;
  }
};

enum class PlacementPolicy {
  kConsistentHash,
  kPopularityAware,
};

const char* PlacementPolicyName(PlacementPolicy policy);

/// Knobs shared by both policies.
struct PlacementConfig {
  std::int64_t num_shards = 4;
  std::int64_t num_titles = 1000;
  /// Copies per title (ring successors / head replication factor).
  /// Clamped to num_shards; must be in [1, kMaxReplicas].
  std::int64_t replicas = 1;
  /// Ring points per shard (consistent hashing only). More virtual
  /// nodes = smoother catalog split across shards.
  std::int64_t virtual_nodes = 64;
  /// Zipf exponent of the request distribution (popularity-aware only).
  double zipf_exponent = 1.0;
  /// Fraction of the catalog the farm is willing to hold as extra head
  /// copies (popularity-aware only): the head/tail split is fitted so
  /// the replicated prefix is exactly this title fraction.
  double replication_budget = 0.05;
  /// Salt of every placement hash; same seed = same catalog layout.
  std::uint64_t seed = 0x51ED2700F00DULL;
};

/// Catalog placement: title -> shards. Implementations are immutable
/// after Create and safe to share across threads.
class Placement {
 public:
  virtual ~Placement() = default;

  virtual const char* name() const = 0;

  /// Shards holding a copy of `title`, preference order first.
  /// Allocation-free. `title` must be in [0, num_titles).
  virtual ShardSet Lookup(std::int64_t title) const = 0;

  std::int64_t num_shards() const { return num_shards_; }
  std::int64_t num_titles() const { return num_titles_; }

  /// Total title copies stored across the farm — the storage price of
  /// the policy (num_titles = one copy each; more = replication).
  virtual std::int64_t total_copies() const = 0;

 protected:
  std::int64_t num_shards_ = 0;
  std::int64_t num_titles_ = 0;
};

/// The placement hash of a title under `seed` (SplitMix64-finalized):
/// where the title sits on a consistent-hash ring, and which shard heads
/// its copies under popularity-aware placement.
std::uint64_t TitleHash(std::uint64_t seed, std::int64_t title);

/// A sorted ring of 64-bit hash points with an O(1) successor index.
///
/// A guide table of m = 2^b buckets (m = bit_ceil(size), at least 2) is
/// keyed on the top b bits of a hash: guide[j] is the first point whose
/// hash is >= j << (64 - b). A query hash h only searches the points of
/// its own bucket, [guide[h >> (64 - b)], guide[(h >> (64 - b)) + 1]], so
/// the successor equals a full-range lower_bound in integer math.
class HashRing {
 public:
  struct Point {
    std::uint64_t hash = 0;
    std::int32_t shard = 0;
  };

  /// Sorts `points` by (hash, shard) and builds the guide table.
  /// Requires at least one and fewer than 2^32 - 1 points.
  explicit HashRing(std::vector<Point> points);

  /// Index of the first point with hash >= h; points().size() when h is
  /// past the last point (the caller wraps).
  std::size_t Successor(std::uint64_t h) const;

  const std::vector<Point>& points() const { return points_; }
  /// Guide-table buckets (m): a power of two >= 2.
  std::size_t buckets() const { return guide_.size() - 1; }

 private:
  std::vector<Point> points_;        ///< sorted by (hash, shard)
  std::vector<std::uint32_t> guide_;  ///< m + 1 entries; guide_[m] = size
  int shift_ = 63;                    ///< 64 - b
};

/// Virtual-node consistent-hash ring over title ids.
class ConsistentHashPlacement : public Placement {
 public:
  static Result<std::unique_ptr<ConsistentHashPlacement>> Create(
      const PlacementConfig& config);

  const char* name() const override { return "consistent_hash"; }
  ShardSet Lookup(std::int64_t title) const override;
  std::int64_t total_copies() const override {
    return num_titles_ * replicas_;
  }

  const HashRing& ring() const { return ring_; }

 private:
  explicit ConsistentHashPlacement(HashRing ring) : ring_(std::move(ring)) {}

  HashRing ring_;
  std::int64_t replicas_ = 1;
  std::uint64_t seed_ = 0;
};

/// Replicated Zipf head, hashed tail.
class PopularityAwarePlacement : public Placement {
 public:
  static Result<std::unique_ptr<PopularityAwarePlacement>> Create(
      const PlacementConfig& config);

  const char* name() const override { return "popularity_aware"; }
  ShardSet Lookup(std::int64_t title) const override;
  std::int64_t total_copies() const override {
    return head_titles_ * replicas_ + (num_titles_ - head_titles_);
  }

  /// Titles in the replicated head ([0, head_titles) by Zipf rank).
  std::int64_t head_titles() const { return head_titles_; }
  /// The fitted X:Y description the split was solved from (x = head
  /// fraction, y = access mass the replicated head captures).
  const model::Popularity& fitted() const { return fitted_; }

 private:
  PopularityAwarePlacement() = default;

  std::int64_t head_titles_ = 0;
  std::int64_t replicas_ = 1;
  std::int64_t step_ = 1;  ///< shard stride between head replicas
  std::uint64_t seed_ = 0;
  model::Popularity fitted_;
};

/// Policy-dispatching factory.
Result<std::unique_ptr<Placement>> MakePlacement(
    PlacementPolicy policy, const PlacementConfig& config);

}  // namespace memstream::farm

#endif  // MEMSTREAM_FARM_PLACEMENT_H_
