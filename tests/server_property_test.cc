// End-to-end property sweep: for every server mode and a grid of
// workloads, the analytically-sized schedule must execute jitter-free
// and its simulated DRAM demand must stay within the double-buffering
// envelope of the analytic figure. This is the library's strongest
// claim, so it is checked wholesale rather than at hand-picked points.

#include <string>

#include <gtest/gtest.h>

#include "server/media_server.h"

namespace memstream::server {
namespace {

// gtest lists a parameter it cannot print as a dump of its raw bytes,
// and test discovery puts that dump into the test name, so the gaps
// after `mode` and `policy` are explicit zeroed members: left as
// padding they held stack garbage and the names changed from run to run.
struct SweepPoint {
  ServerMode mode;
  std::int32_t zero_after_mode = 0;
  std::int64_t n;
  double bit_rate;
  std::int64_t k = 0;
  model::CachePolicy policy = {};
  std::int32_t zero_after_policy = 0;
};

std::string PointName(const ::testing::TestParamInfo<SweepPoint>& info) {
  const auto& p = info.param;
  std::string name = ServerModeName(p.mode);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  name += "_n" + std::to_string(p.n) + "_b" +
          std::to_string(static_cast<int>(p.bit_rate / 1000)) + "k" +
          std::to_string(p.k);
  if (p.mode == ServerMode::kMemsCache) {
    name += model::CachePolicyName(p.policy)[0] == 's' ? "_str" : "_rep";
  }
  return name;
}

class ServerSweep : public ::testing::TestWithParam<SweepPoint> {};

INSTANTIATE_TEST_SUITE_P(
    AllModes, ServerSweep,
    ::testing::Values(
        // Direct servers across the bit-rate decades.
        SweepPoint{.mode = ServerMode::kDirect, .n = 100, .bit_rate = 10e3},
        SweepPoint{.mode = ServerMode::kDirect, .n = 100, .bit_rate = 100e3},
        SweepPoint{.mode = ServerMode::kDirect, .n = 80, .bit_rate = 1e6},
        SweepPoint{.mode = ServerMode::kDirect, .n = 15, .bit_rate = 10e6},
        SweepPoint{.mode = ServerMode::kDirect, .n = 200, .bit_rate = 1e6},
        // MEMS buffer: bank sizes and loads.
        SweepPoint{.mode = ServerMode::kMemsBuffer, .n = 12, .bit_rate = 1e6,
                   .k = 1},
        SweepPoint{.mode = ServerMode::kMemsBuffer, .n = 60, .bit_rate = 1e6,
                   .k = 2},
        SweepPoint{.mode = ServerMode::kMemsBuffer, .n = 90, .bit_rate = 1e6,
                   .k = 3},
        SweepPoint{.mode = ServerMode::kMemsBuffer, .n = 120,
                   .bit_rate = 100e3, .k = 2},
        // MEMS cache: both policies, both bit-rates of Fig. 9.
        SweepPoint{.mode = ServerMode::kMemsCache, .n = 40, .bit_rate = 1e6,
                   .k = 2, .policy = model::CachePolicy::kStriped},
        SweepPoint{.mode = ServerMode::kMemsCache, .n = 40, .bit_rate = 1e6,
                   .k = 2, .policy = model::CachePolicy::kReplicated},
        SweepPoint{.mode = ServerMode::kMemsCache, .n = 80, .bit_rate = 100e3,
                   .k = 4, .policy = model::CachePolicy::kStriped},
        SweepPoint{.mode = ServerMode::kMemsCache, .n = 80, .bit_rate = 100e3,
                   .k = 4, .policy = model::CachePolicy::kReplicated}),
    PointName);

TEST_P(ServerSweep, AnalyticSizingExecutesJitterFree) {
  const SweepPoint& p = GetParam();
  MediaServerConfig config;
  config.mode = p.mode;
  config.disk = device::FutureDisk2007();
  config.disk.inner_rate = config.disk.outer_rate;
  config.k = std::max<std::int64_t>(p.k, 1);
  config.cache_policy = p.policy;
  config.cached_fraction_of_streams = 0.5;
  config.num_streams = p.n;
  config.bit_rate = p.bit_rate;
  config.sim_duration = 25;

  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().qos.underflow_events, 0);
  EXPECT_DOUBLE_EQ(result.value().qos.underflow_time, 0.0);
  EXPECT_EQ(result.value().cycle_overruns, 0);
  EXPECT_GT(result.value().ios_completed, 0);
  // Double-buffered execution uses at most ~2x the analytic DRAM (plus
  // pipeline slack in buffer mode).
  EXPECT_LE(result.value().sim_peak_dram,
            2.5 * result.value().analytic_dram_total)
      << "peak " << result.value().sim_peak_dram << " vs analytic "
      << result.value().analytic_dram_total;
}

TEST_P(ServerSweep, DeterministicReplay) {
  const SweepPoint& p = GetParam();
  if (p.mode != ServerMode::kDirect) {
    GTEST_SKIP() << "replay spot-check runs on the direct mode only";
  }
  MediaServerConfig config;
  config.mode = p.mode;
  config.disk = device::FutureDisk2007();
  config.disk.inner_rate = config.disk.outer_rate;
  config.num_streams = p.n;
  config.bit_rate = p.bit_rate;
  config.sim_duration = 10;
  auto a = RunMediaServer(config);
  auto b = RunMediaServer(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ios_completed, b.value().ios_completed);
  EXPECT_DOUBLE_EQ(a.value().sim_peak_dram, b.value().sim_peak_dram);
  EXPECT_DOUBLE_EQ(a.value().disk_utilization,
                   b.value().disk_utilization);
}

}  // namespace
}  // namespace memstream::server
