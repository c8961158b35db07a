// Catalog placement: ring balance, replica distinctness, the fitted
// head/tail split, and the allocation-free Lookup contract (this binary
// replaces global operator new with a counting version, as in
// cycle_alloc_test).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "farm/placement.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace memstream::farm {
namespace {

std::int64_t CurrentAllocs() {
  return g_allocations.load(std::memory_order_relaxed);
}

PlacementConfig SmallConfig() {
  PlacementConfig config;
  config.num_shards = 4;
  config.num_titles = 200;
  config.zipf_exponent = 0.8;
  return config;
}

TEST(ConsistentHashPlacementTest, LookupReturnsValidShard) {
  auto p = ConsistentHashPlacement::Create(SmallConfig());
  ASSERT_TRUE(p.ok());
  for (std::int64_t t = 0; t < 200; ++t) {
    const ShardSet s = p.value()->Lookup(t);
    ASSERT_EQ(s.count, 1);
    EXPECT_GE(s.shard[0], 0);
    EXPECT_LT(s.shard[0], 4);
  }
}

TEST(ConsistentHashPlacementTest, LookupIsDeterministic) {
  auto a = ConsistentHashPlacement::Create(SmallConfig());
  auto b = ConsistentHashPlacement::Create(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::int64_t t = 0; t < 200; ++t) {
    EXPECT_EQ(a.value()->Lookup(t).shard[0], b.value()->Lookup(t).shard[0]);
  }
}

TEST(ConsistentHashPlacementTest, ReplicasAreDistinctShards) {
  PlacementConfig config = SmallConfig();
  config.replicas = 3;
  auto p = ConsistentHashPlacement::Create(config);
  ASSERT_TRUE(p.ok());
  for (std::int64_t t = 0; t < 200; ++t) {
    const ShardSet s = p.value()->Lookup(t);
    ASSERT_EQ(s.count, 3);
    EXPECT_NE(s.shard[0], s.shard[1]);
    EXPECT_NE(s.shard[0], s.shard[2]);
    EXPECT_NE(s.shard[1], s.shard[2]);
  }
  EXPECT_EQ(p.value()->total_copies(), 600);
}

// Regression: ring vnode inputs must be domain-separated from title ids.
// An untagged vnode (shard 0, v) hashes identically to title v, which
// silently pinned every low-id title onto shard 0.
TEST(ConsistentHashPlacementTest, CatalogSplitsRoughlyEvenly) {
  auto p = ConsistentHashPlacement::Create(SmallConfig());
  ASSERT_TRUE(p.ok());
  std::vector<int> count(4, 0);
  for (std::int64_t t = 0; t < 200; ++t) {
    ++count[static_cast<std::size_t>(p.value()->Lookup(t).shard[0])];
  }
  for (int c : count) {
    EXPECT_GT(c, 10);   // mean is 50; gross capture would leave ~0
    EXPECT_LT(c, 100);  // ...and pile ~130+ onto one shard
  }
}

TEST(ConsistentHashPlacementTest, LookupIsAllocationFree) {
  auto p = ConsistentHashPlacement::Create(SmallConfig());
  ASSERT_TRUE(p.ok());
  (void)p.value()->Lookup(0);  // warm anything lazy
  const std::int64_t before = CurrentAllocs();
  std::int64_t sum = 0;
  for (std::int64_t t = 0; t < 200; ++t) {
    sum += p.value()->Lookup(t).shard[0];
  }
  EXPECT_EQ(CurrentAllocs(), before) << "Lookup touched the heap";
  EXPECT_GE(sum, 0);
}

// The full-range binary search that the ring's guide table narrows.
std::size_t ReferenceSuccessor(const std::vector<HashRing::Point>& points,
                               std::uint64_t h) {
  return static_cast<std::size_t>(
      std::lower_bound(points.begin(), points.end(), h,
                       [](const HashRing::Point& p, std::uint64_t key) {
                         return p.hash < key;
                       }) -
      points.begin());
}

TEST(HashRingTest, SuccessorMatchesBinarySearchOnBucketEdges) {
  for (const std::size_t size : {1, 2, 3, 100, 8192}) {
    Rng rng(size);
    std::vector<HashRing::Point> points;
    for (std::size_t i = 0; i < size; ++i) {
      points.push_back({rng.NextU64(), static_cast<std::int32_t>(i % 7)});
    }
    const HashRing ring(points);
    ASSERT_EQ(ring.points().size(), size);
    ASSERT_TRUE(std::has_single_bit(ring.buckets()));
    ASSERT_GE(ring.buckets(), 2u);
    const int shift = 64 - std::countr_zero(ring.buckets());

    std::vector<std::uint64_t> probes = {
        0, 1, std::numeric_limits<std::uint64_t>::max()};
    // Every bucket edge and its neighbours.
    for (std::uint64_t j = 0; j < ring.buckets(); ++j) {
      const std::uint64_t edge = j << shift;
      probes.insert(probes.end(), {edge, edge - 1, edge + 1});
    }
    // Every ring point and its neighbours.
    for (const HashRing::Point& p : ring.points()) {
      probes.insert(probes.end(), {p.hash, p.hash - 1, p.hash + 1});
    }
    for (const std::uint64_t h : probes) {
      ASSERT_EQ(ring.Successor(h), ReferenceSuccessor(ring.points(), h))
          << "size=" << size << " h=" << h;
    }
  }
}

TEST(HashRingTest, PointsOnBucketEdgesAndDuplicates) {
  // Points sitting exactly on bucket edges (and a duplicated hash) are
  // where an off-by-one in the guide table would show.
  std::vector<HashRing::Point> points;
  for (std::uint64_t j = 0; j < 8; ++j) {
    points.push_back({j << 61, static_cast<std::int32_t>(j)});
  }
  points.push_back({3ULL << 61, 9});
  points.push_back({std::numeric_limits<std::uint64_t>::max(), 10});
  const HashRing ring(points);
  for (const HashRing::Point& p : ring.points()) {
    for (const std::uint64_t h : {p.hash - 1, p.hash, p.hash + 1}) {
      ASSERT_EQ(ring.Successor(h), ReferenceSuccessor(ring.points(), h))
          << "h=" << h;
    }
  }
}

TEST(ConsistentHashPlacementTest, LookupMatchesReferenceRingWalk) {
  // The flagship ring (128 shards x 64 virtual nodes) over 10^5 titles.
  for (const std::int64_t replicas : {1, 3}) {
    PlacementConfig config;
    config.num_shards = 128;
    config.virtual_nodes = 64;
    config.num_titles = 100000;
    config.replicas = replicas;
    auto p = ConsistentHashPlacement::Create(config);
    ASSERT_TRUE(p.ok());
    const std::vector<HashRing::Point>& points = p.value()->ring().points();
    ASSERT_EQ(points.size(), 128u * 64u);
    for (std::int64_t t = 0; t < config.num_titles; ++t) {
      ShardSet want;
      std::size_t at = ReferenceSuccessor(points, TitleHash(config.seed, t));
      for (std::size_t walked = 0;
           walked < points.size() && want.count < replicas; ++walked) {
        const std::int32_t s = points[(at + walked) % points.size()].shard;
        if (!want.Contains(s)) {
          want.shard[static_cast<std::size_t>(want.count++)] = s;
        }
      }
      const ShardSet got = p.value()->Lookup(t);
      ASSERT_EQ(got.count, want.count) << "title " << t;
      for (std::int32_t i = 0; i < got.count; ++i) {
        ASSERT_EQ(got.shard[static_cast<std::size_t>(i)],
                  want.shard[static_cast<std::size_t>(i)])
            << "title " << t;
      }
    }
  }
}

TEST(PopularityAwarePlacementTest, HeadIsReplicatedTailIsNot) {
  PlacementConfig config = SmallConfig();
  config.replicas = 3;
  auto p = PopularityAwarePlacement::Create(config);
  ASSERT_TRUE(p.ok());
  const std::int64_t head = p.value()->head_titles();
  ASSERT_GT(head, 0);
  ASSERT_LT(head, config.num_titles);
  for (std::int64_t t = 0; t < config.num_titles; ++t) {
    const ShardSet s = p.value()->Lookup(t);
    if (t < head) {
      ASSERT_EQ(s.count, 3) << "head title " << t;
      EXPECT_NE(s.shard[0], s.shard[1]);
      EXPECT_NE(s.shard[1], s.shard[2]);
      EXPECT_NE(s.shard[0], s.shard[2]);
    } else {
      ASSERT_EQ(s.count, 1) << "tail title " << t;
    }
  }
  EXPECT_EQ(p.value()->total_copies(),
            head * 3 + (config.num_titles - head));
}

TEST(PopularityAwarePlacementTest, SplitFollowsReplicationBudget) {
  PlacementConfig config = SmallConfig();
  config.replicas = 2;
  config.replication_budget = 0.10;
  auto p = PopularityAwarePlacement::Create(config);
  ASSERT_TRUE(p.ok());
  // The fitted head fraction is the budget; the head captures the Zipf
  // mass FitZipfTwoClass assigns to it.
  EXPECT_NEAR(p.value()->fitted().x, 0.10, 0.01);
  EXPECT_GT(p.value()->fitted().y, p.value()->fitted().x);
  EXPECT_EQ(p.value()->head_titles(),
            std::llround(p.value()->fitted().x * 200));
}

TEST(PopularityAwarePlacementTest, LookupIsAllocationFree) {
  PlacementConfig config = SmallConfig();
  config.replicas = 3;
  auto p = PopularityAwarePlacement::Create(config);
  ASSERT_TRUE(p.ok());
  (void)p.value()->Lookup(0);
  const std::int64_t before = CurrentAllocs();
  std::int64_t sum = 0;
  for (std::int64_t t = 0; t < 200; ++t) {
    sum += p.value()->Lookup(t).shard[0];
  }
  EXPECT_EQ(CurrentAllocs(), before) << "Lookup touched the heap";
  EXPECT_GE(sum, 0);
}

TEST(PlacementFactoryTest, DispatchesByPolicy) {
  auto hash = MakePlacement(PlacementPolicy::kConsistentHash, SmallConfig());
  ASSERT_TRUE(hash.ok());
  EXPECT_STREQ(hash.value()->name(), "consistent_hash");
  auto pop = MakePlacement(PlacementPolicy::kPopularityAware, SmallConfig());
  ASSERT_TRUE(pop.ok());
  EXPECT_STREQ(pop.value()->name(), "popularity_aware");
}

TEST(PlacementFactoryTest, RejectsBadConfig) {
  PlacementConfig config = SmallConfig();
  config.num_shards = 0;
  EXPECT_FALSE(
      MakePlacement(PlacementPolicy::kConsistentHash, config).ok());
  config = SmallConfig();
  config.replicas = kMaxReplicas + 1;
  EXPECT_FALSE(
      MakePlacement(PlacementPolicy::kPopularityAware, config).ok());
  config = SmallConfig();
  config.replication_budget = 0;
  EXPECT_FALSE(
      MakePlacement(PlacementPolicy::kPopularityAware, config).ok());
}

TEST(PlacementFactoryTest, RejectsNonFiniteInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf}) {
    PlacementConfig config = SmallConfig();
    config.zipf_exponent = bad;
    EXPECT_FALSE(
        MakePlacement(PlacementPolicy::kPopularityAware, config).ok())
        << "zipf_exponent=" << bad;
  }
  PlacementConfig config = SmallConfig();
  config.replication_budget = std::nan("");
  EXPECT_FALSE(
      MakePlacement(PlacementPolicy::kPopularityAware, config).ok());
  // A ring too large for the guide table's 32-bit entries.
  config = SmallConfig();
  config.num_shards = 1 << 16;
  config.virtual_nodes = 1 << 16;
  EXPECT_FALSE(
      MakePlacement(PlacementPolicy::kConsistentHash, config).ok());
}

TEST(PlacementFactoryTest, ReplicasClampToShardCount) {
  PlacementConfig config = SmallConfig();
  config.num_shards = 2;
  config.replicas = 5;
  auto p = MakePlacement(PlacementPolicy::kConsistentHash, config);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value()->Lookup(0).count, 2);
}

}  // namespace
}  // namespace memstream::farm
