#include "fault/degradation.h"

#include <gtest/gtest.h>

#include "device/device_catalog.h"
#include "model/profiles.h"

namespace memstream::fault {
namespace {

model::DeviceProfile G3Profile() {
  return model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
}

model::DeviceProfile DiskProfile(std::int64_t n) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  return model::DiskProfileConservative(disk.value(), n);
}

DegradationConfig BaseConfig(model::CachePolicy policy) {
  DegradationConfig config;
  config.policy = policy;
  config.k = 2;
  config.bit_rate = 8 * kMBps;
  config.mems = G3Profile();
  config.disk = DiskProfile(30);
  config.n_disk = 15;
  config.n_cache = 15;
  config.refill_delay = 1.0;
  return config;
}

TEST(DegradationTest, HealthyBankReplansToFullStrength) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kReplicated));
  ASSERT_TRUE(manager.ok());
  CacheReplan plan = manager.value().Replan(2, 1.0);
  EXPECT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.cache_down);
  EXPECT_EQ(plan.retained, 15);
  EXPECT_EQ(plan.shed, 0);
  EXPECT_EQ(plan.to_disk, 0);
  EXPECT_GT(plan.mems_cycle, 0.0);
}

TEST(DegradationTest, ReplicatedDeviceLossReshapesWithLongerCycle) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kReplicated));
  ASSERT_TRUE(manager.ok());
  const CacheReplan healthy = manager.value().Replan(2, 1.0);
  const CacheReplan degraded = manager.value().Replan(1, 1.0);
  EXPECT_TRUE(degraded.feasible);
  EXPECT_FALSE(degraded.cache_down);
  // One G3 device still sustains all 15 cached streams (Theorem 4 with
  // k' = 1), at the cost of a bigger per-stream buffer / longer cycle.
  EXPECT_EQ(degraded.retained, 15);
  EXPECT_EQ(degraded.shed, 0);
  EXPECT_GT(degraded.mems_cycle, healthy.mems_cycle);
  EXPECT_GT(degraded.per_stream_buffer, healthy.per_stream_buffer);
  EXPECT_NE(degraded.action.find("reshape"), std::string::npos);
}

TEST(DegradationTest, SevereTipLossShedsFewestStreams) {
  auto config = BaseConfig(model::CachePolicy::kReplicated);
  config.k = 1;
  auto manager = DegradationManager::Create(config);
  ASSERT_TRUE(manager.ok());
  // 90% tip loss: one device at 0.1 * Rm sustains only a few streams.
  const CacheReplan plan = manager.value().Replan(1, 0.1);
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(plan.shed, 0);
  EXPECT_EQ(plan.retained + plan.shed, 15);
  EXPECT_EQ(plan.retained, manager.value().MaxSustainable(1, 0.1));
  EXPECT_NE(plan.action.find("shed"), std::string::npos);
}

TEST(DegradationTest, StripedDeviceLossDropsTheCachePath) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kStriped));
  ASSERT_TRUE(manager.ok());
  const CacheReplan plan = manager.value().Replan(1, 1.0);
  EXPECT_TRUE(plan.cache_down);
  EXPECT_EQ(plan.retained, 0);
  // The zoned disk serving 15 streams at 8 MB/s has some headroom, but
  // not 15 streams' worth: a mix of fallback and shedding.
  EXPECT_GT(plan.to_disk, 0);
  EXPECT_GT(plan.shed, 0);
  EXPECT_EQ(plan.to_disk + plan.shed, 15);
  EXPECT_GT(plan.disk_cycle, 0.0);
  EXPECT_NE(plan.action.find("cache down"), std::string::npos);
}

TEST(DegradationTest, DiskFallbackRespectsTheoremOneBound) {
  auto manager =
      DegradationManager::Create(BaseConfig(model::CachePolicy::kStriped));
  ASSERT_TRUE(manager.ok());
  const CacheReplan plan = manager.value().Replan(0, 1.0);
  // Whatever moved must itself be a feasible Theorem 1 extension...
  EXPECT_TRUE(manager.value().DiskCanAbsorb(plan.to_disk));
  // ...and one more stream must not be (the binary search is maximal).
  EXPECT_FALSE(manager.value().DiskCanAbsorb(plan.to_disk + 1));
}

TEST(DegradationTest, DisabledFallbackShedsEverythingOnCacheDown) {
  auto config = BaseConfig(model::CachePolicy::kStriped);
  config.allow_disk_fallback = false;
  auto manager = DegradationManager::Create(config);
  ASSERT_TRUE(manager.ok());
  const CacheReplan plan = manager.value().Replan(1, 1.0);
  EXPECT_TRUE(plan.cache_down);
  EXPECT_EQ(plan.to_disk, 0);
  EXPECT_EQ(plan.shed, 15);
  EXPECT_FALSE(plan.feasible);
}

TEST(DegradationTest, EveryDegradedStateAccountsForEachCachedStream) {
  // Over every bank state a fault/repair walk can reach, a re-plan keeps,
  // moves or sheds each cached stream exactly once, and never keeps more
  // than the degraded bank sustains.
  for (const auto policy :
       {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
    auto config = BaseConfig(policy);
    config.k = 4;
    config.n_cache = 60;
    config.bit_rate = 1 * kMBps;
    auto manager = DegradationManager::Create(config);
    ASSERT_TRUE(manager.ok());
    for (std::int64_t alive = 0; alive <= config.k; ++alive) {
      for (const double rate_scale : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const CacheReplan plan = manager.value().Replan(alive, rate_scale);
        EXPECT_EQ(plan.retained + plan.to_disk + plan.shed, config.n_cache)
            << "alive=" << alive << " rate_scale=" << rate_scale;
        EXPECT_LE(plan.retained,
                  manager.value().MaxSustainable(alive, rate_scale));
      }
    }
  }
}

TEST(DegradationTest, CreateValidates) {
  DegradationConfig config = BaseConfig(model::CachePolicy::kReplicated);
  config.k = 0;
  EXPECT_FALSE(DegradationManager::Create(config).ok());
  config = BaseConfig(model::CachePolicy::kReplicated);
  config.bit_rate = 0;
  EXPECT_FALSE(DegradationManager::Create(config).ok());
  config = BaseConfig(model::CachePolicy::kReplicated);
  config.refill_delay = -1;
  EXPECT_FALSE(DegradationManager::Create(config).ok());
}

}  // namespace
}  // namespace memstream::fault
