// Farm admission router: Theorem-1/2 headroom enforcement per shard,
// least-loaded replica choice, down-shard skipping, and release
// accounting.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "device/disk.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "model/profiles.h"

namespace memstream::farm {
namespace {

PlacementConfig SmallPlacement(std::int64_t shards, std::int64_t replicas) {
  PlacementConfig config;
  config.num_shards = shards;
  config.num_titles = 100;
  config.replicas = replicas;
  return config;
}

RouterConfig SmallRouter(Bytes dram_budget) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  RouterConfig rc;
  rc.dram_budget_per_shard = dram_budget;
  rc.node_rate = disk.value().parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(disk.value());
  return rc;
}

TEST(AdmissionRouterTest, RequiresPlacementAndLatency) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(2, 1));
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(AdmissionRouter::Create(nullptr, SmallRouter(1 * kGB)).ok());
  RouterConfig rc = SmallRouter(1 * kGB);
  rc.node_latency = nullptr;
  EXPECT_FALSE(AdmissionRouter::Create(p.value().get(), rc).ok());
}

TEST(AdmissionRouterTest, CreateRejectsNonFiniteRateAndBudget) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(2, 1));
  ASSERT_TRUE(p.ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, 0.0, -1.0}) {
    RouterConfig rate = SmallRouter(1 * kGB);
    rate.node_rate = bad;
    EXPECT_FALSE(AdmissionRouter::Create(p.value().get(), rate).ok())
        << "node_rate=" << bad;
    RouterConfig budget = SmallRouter(1 * kGB);
    budget.dram_budget_per_shard = bad;
    EXPECT_FALSE(AdmissionRouter::Create(p.value().get(), budget).ok())
        << "dram_budget_per_shard=" << bad;
  }
  EXPECT_TRUE(AdmissionRouter::Create(p.value().get(), SmallRouter(1 * kGB))
                  .ok());
}

TEST(AdmissionRouterTest, AdmitsUntilBudgetThenRejects) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(1, 1));
  ASSERT_TRUE(p.ok());
  // A budget this small caps the single shard at a handful of streams.
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(8 * kMB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  std::int64_t admitted = 0;
  RouteDecision last;
  for (int i = 0; i < 200; ++i) {
    last = r.Route(/*title=*/7, /*bit_rate=*/1 * kMBps);
    if (!last.admitted) break;
    ++admitted;
    EXPECT_EQ(last.shard, 0);
    EXPECT_EQ(last.streams_on_shard, admitted);
    EXPECT_LE(last.dram_required, 8 * kMB);
    EXPECT_TRUE(last.reason.empty());
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 200);
  EXPECT_FALSE(last.admitted);
  EXPECT_EQ(last.shard, -1);
  EXPECT_FALSE(last.reason.empty()) << "rejection must carry a reason";
  EXPECT_EQ(r.admitted(), admitted);
  EXPECT_EQ(r.rejected(), 1);
  EXPECT_EQ(r.attempts(), r.admitted() + r.rejected());
  EXPECT_EQ(r.admitted_on(0), admitted);
}

TEST(AdmissionRouterTest, LeastLoadedReplicaWins) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(4, 2));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(4 * kGB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  // The same title always resolves to the same two replicas; repeated
  // admissions must alternate between them (least-loaded first).
  const ShardSet replicas = p.value()->Lookup(3);
  ASSERT_EQ(replicas.count, 2);
  for (int i = 0; i < 10; ++i) {
    const RouteDecision d = r.Route(3, 1 * kMBps);
    ASSERT_TRUE(d.admitted);
    EXPECT_TRUE(replicas.Contains(d.shard));
  }
  const std::int64_t a = r.admitted_on(replicas.shard[0]);
  const std::int64_t b = r.admitted_on(replicas.shard[1]);
  EXPECT_EQ(a + b, 10);
  EXPECT_LE(std::abs(a - b), 1) << "load must balance across replicas";
}

TEST(AdmissionRouterTest, DownShardIsSkipped) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(4, 2));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(4 * kGB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  const ShardSet replicas = p.value()->Lookup(3);
  ASSERT_EQ(replicas.count, 2);
  ASSERT_TRUE(r.SetShardUp(replicas.shard[0], false).ok());
  EXPECT_FALSE(r.shard_up(replicas.shard[0]));
  for (int i = 0; i < 5; ++i) {
    const RouteDecision d = r.Route(3, 1 * kMBps);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.shard, replicas.shard[1]);
  }
  // With every replica down the request has nowhere to go.
  ASSERT_TRUE(r.SetShardUp(replicas.shard[1], false).ok());
  const RouteDecision d = r.Route(3, 1 * kMBps);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "no live replica");
  // Repair restores routing.
  ASSERT_TRUE(r.SetShardUp(replicas.shard[0], true).ok());
  EXPECT_TRUE(r.Route(3, 1 * kMBps).admitted);
}

TEST(AdmissionRouterTest, ReleaseReturnsHeadroom) {
  auto p = ConsistentHashPlacement::Create(SmallPlacement(1, 1));
  ASSERT_TRUE(p.ok());
  auto router = AdmissionRouter::Create(p.value().get(), SmallRouter(8 * kMB));
  ASSERT_TRUE(router.ok());
  AdmissionRouter& r = router.value();

  std::int64_t admitted = 0;
  while (r.Route(0, 1 * kMBps).admitted) ++admitted;
  ASSERT_GT(admitted, 0);
  const Bytes dram_full = r.dram_on(0);
  ASSERT_TRUE(r.Release(0, 1 * kMBps).ok());
  EXPECT_EQ(r.admitted_on(0), admitted - 1);
  EXPECT_LT(r.dram_on(0), dram_full);
  // The freed slot admits again.
  EXPECT_TRUE(r.Route(0, 1 * kMBps).admitted);
  EXPECT_FALSE(r.Release(-1, 1 * kMBps).ok());
  EXPECT_FALSE(r.Release(1, 1 * kMBps).ok());
}

}  // namespace
}  // namespace memstream::farm
