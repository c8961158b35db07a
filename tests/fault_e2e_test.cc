// Seeded end-to-end fault scenarios through the MediaServer facade
// (ISSUE acceptance): a replicated bank survives one device loss with
// zero underflows; a striped bank sheds deterministically and re-admits
// on repair; the same fault seed yields byte-identical reports at any
// sweep thread count.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep_runner.h"
#include "fault/fault_plan.h"
#include "model/stream.h"
#include "obs/run_report.h"
#include "server/media_server.h"

namespace memstream::server {
namespace {

// High per-stream rate so the (zoned, conservative) disk path has little
// headroom: a striped cache outage then cannot absorb every cached
// stream, forcing the shed + re-admit path the scenarios assert on.
constexpr BytesPerSecond kRate = 8 * kMBps;

MediaServerConfig FaultScenario(model::CachePolicy policy,
                                fault::FaultPlan plan) {
  MediaServerConfig config;
  config.mode = ServerMode::kMemsCache;
  config.cache_policy = policy;
  config.k = 2;
  config.num_streams = 30;
  config.cached_fraction_of_streams = 0.5;
  config.bit_rate = kRate;
  config.sim_duration = 30;
  config.fault_plan = std::move(plan);
  config.fault_refill_delay = 1.0;
  return config;
}

std::string ViolationDump(const MediaServerResult& result) {
  std::string out;
  if (result.auditor != nullptr) {
    for (const auto& v : result.auditor->violations()) {
      out += v.ToString() + "\n";
    }
  }
  return out;
}

fault::FaultPlan FailRepairPlan(std::int64_t device, Seconds fail_at,
                                Seconds repair_at) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fail_at, fault::FaultKind::kMemsDeviceFail, device, 0, 0});
  events.push_back({repair_at, fault::FaultKind::kMemsDeviceRepair, device, 0,
                    repair_at - fail_at});
  return fault::FaultPlan::FromScript(std::move(events));
}

TEST(FaultE2eTest, ReplicatedBankSurvivesDeviceLossWithoutUnderflow) {
  auto config = FaultScenario(model::CachePolicy::kReplicated,
                              FailRepairPlan(1, 10, 20));
  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The surviving device sustains every cached stream (Theorem 4 with
  // k' = 1), so degradation reshapes instead of shedding and playback
  // never stutters — including across both re-plan transitions.
  EXPECT_EQ(result.value().qos.underflow_events, 0);
  EXPECT_EQ(result.value().qos.violations, 0) << ViolationDump(result.value());

  ASSERT_NE(result.value().faults, nullptr);
  const obs::FaultsBlock& block = result.value().faults->block();
  EXPECT_EQ(block.events, 1);
  EXPECT_EQ(block.repairs, 1);
  EXPECT_EQ(block.replans, 2);  // degrade at t=10, restore at t=20
  EXPECT_EQ(block.sheds, 0);
  EXPECT_TRUE(block.shed_streams.empty());
  // Timeline: the failure start and the repair end, both annotated with
  // the re-plan the DegradationManager applied.
  ASSERT_EQ(block.timeline.size(), 2u);
  EXPECT_EQ(block.timeline[0].kind, "mems-device-fail");
  EXPECT_FALSE(block.timeline[0].action.empty());
  EXPECT_EQ(block.timeline[1].kind, "mems-device-repair");
}

TEST(FaultE2eTest, StripedBankShedsExactStreamsAndReadmitsOnRepair) {
  auto config = FaultScenario(model::CachePolicy::kStriped,
                              FailRepairPlan(1, 10, 18));
  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_NE(result.value().faults, nullptr);
  const obs::FaultsBlock& block = result.value().faults->block();

  // Losing one striped device loses the cache content (Corollary 3): the
  // disk absorbs what Theorem 1 allows, the rest shed deterministically
  // from the top of the cached id range [15, 30).
  ASSERT_GE(block.sheds, 1);
  EXPECT_EQ(block.sheds, static_cast<std::int64_t>(block.shed_streams.size()));
  EXPECT_EQ(block.readmits, block.sheds);
  std::vector<std::int64_t> shed_ids;
  for (const auto& rec : block.shed_streams) {
    EXPECT_NEAR(rec.shed_time, 10.0, 1e-9);
    // Repair at t=18 + 1s stripe refill: re-admitted at t=19.
    EXPECT_NEAR(rec.readmit_time, 19.0, 1e-9);
    shed_ids.push_back(rec.stream_id);
  }
  // Highest-indexed cached streams first: exactly the tail of [15, 30).
  std::sort(shed_ids.begin(), shed_ids.end());
  for (std::size_t j = 0; j < shed_ids.size(); ++j) {
    EXPECT_EQ(shed_ids[j],
              30 - static_cast<std::int64_t>(shed_ids.size() - j));
  }
  EXPECT_GT(block.total_shed_time, 0.0);

  // Retained streams (cache survivors on disk + original disk streams)
  // play through the outage clean.
  EXPECT_EQ(result.value().qos.underflow_events, 0);
  EXPECT_EQ(result.value().qos.violations, 0) << ViolationDump(result.value());
}

TEST(FaultE2eTest, UnmanagedStripedBankStallsWithoutDegradation) {
  auto config = FaultScenario(model::CachePolicy::kStriped,
                              FailRepairPlan(1, 10, 18));
  config.degrade = false;  // ablation: faults strike, nothing reacts
  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Cached streams starve once the stripe is broken.
  EXPECT_GT(result.value().qos.underflow_events, 0);
  ASSERT_NE(result.value().faults, nullptr);
  EXPECT_EQ(result.value().faults->block().replans, 0);
  EXPECT_EQ(result.value().faults->block().sheds, 0);
}

// Three non-overlapping single-device outages (dev0 at ~3.05 s and
// ~14.48 s, dev1 at ~33.48 s, 4 s each) on a replicated DVD bank. Every
// outage reshapes to k' = 1 with a longer MEMS cycle; the reshape must
// cushion each retained stream for the double-buffered new cycle, or
// the third outage drains the highest-indexed streams dry.
TEST(FaultE2eTest, ReplicatedReshapeCushionsRepeatedOutages) {
  fault::FaultPlanConfig pc;
  pc.horizon = 200;
  pc.num_devices = 2;
  pc.device_fail_rate = 0.02;
  pc.repair_after = 4;
  auto plan = fault::FaultPlan::Generate(pc, 7000);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  MediaServerConfig config;
  config.mode = ServerMode::kMemsCache;
  config.cache_policy = model::CachePolicy::kReplicated;
  config.disk.inner_rate = config.disk.outer_rate;
  config.k = 2;
  config.num_streams = 60;
  config.cached_fraction_of_streams = 0.5;
  config.bit_rate = model::Dvd().bit_rate;
  config.sim_duration = 40;
  config.seed = 7;
  config.fault_plan = std::move(plan).value();
  std::ostringstream sink;
  config.fault_warn_stream = &sink;
  auto result = RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_NE(result.value().faults, nullptr);
  EXPECT_EQ(result.value().faults->block().sheds, 0);
  EXPECT_EQ(result.value().qos.underflow_events, 0);
  EXPECT_EQ(result.value().qos.violations, 0) << ViolationDump(result.value());
}

// The striped DVD bank of the server_modes benchmark (n = 60, k = 2,
// uniform-rate disk, managed degradation, 4 s outages) under a scripted
// plan.
MediaServerResult RunStripedDvd(std::vector<fault::FaultEvent> events) {
  MediaServerConfig config;
  config.mode = ServerMode::kMemsCache;
  config.cache_policy = model::CachePolicy::kStriped;
  config.disk.inner_rate = config.disk.outer_rate;
  config.k = 2;
  config.num_streams = 60;
  config.cached_fraction_of_streams = 0.5;
  config.bit_rate = model::Dvd().bit_rate;
  config.sim_duration = 20;
  config.fault_plan = fault::FaultPlan::FromScript(std::move(events));
  std::ostringstream sink;
  config.fault_warn_stream = &sink;
  auto result = RunMediaServer(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.value() : MediaServerResult{};
}

// A device lost in the first cycles falls every cached stream back to
// the disk, and stretches the disk cycle, before most streams have
// started playing. A starting stream's first deposit (landed or still
// in flight) schedules its playback start on the old cycle, so the
// transition must cushion it like a playing stream; otherwise it starts
// with one short cycle of data, runs dry before its first deposit on
// the new schedule, and keeps running dry on in-cycle order jitter
// (808 underflows at a 3 ms failure, 343 at 50 ms).
TEST(FaultE2eTest, StripedEarlyFailureCushionsStartingStreams) {
  for (const Seconds fail_at : {0.003, 0.05}) {
    const MediaServerResult r =
        RunStripedDvd({{fail_at, fault::FaultKind::kMemsDeviceFail, 1, 0, 0},
                       {fail_at + 4, fault::FaultKind::kMemsDeviceRepair, 1,
                        0, 4}});
    EXPECT_EQ(r.qos.underflow_events, 0) << "fail at " << fail_at;
    EXPECT_EQ(r.qos.violations, 0) << "fail at " << fail_at << "\n"
                                   << ViolationDump(r);
  }
}

// Both devices down at once: each repair schedules its own delayed
// re-plan one refill_delay later. The first moves the cached streams
// back to the cache and arms their DRAM bound for the disk deposit
// still in flight; the second changes nothing and must not re-arm the
// bound without that carry (3 dram_bound violations at 10.0/10.02 s).
TEST(FaultE2eTest, StripedOverlappingOutagesKeepTransitionBounds) {
  const MediaServerResult r =
      RunStripedDvd({{10.0, fault::FaultKind::kMemsDeviceFail, 0, 0, 0},
                     {10.02, fault::FaultKind::kMemsDeviceFail, 1, 0, 0},
                     {14.0, fault::FaultKind::kMemsDeviceRepair, 0, 0, 4},
                     {14.02, fault::FaultKind::kMemsDeviceRepair, 1, 0, 4}});
  EXPECT_EQ(r.qos.violations, 0) << ViolationDump(r);
  EXPECT_EQ(r.qos.underflow_events, 0);
}

std::string ReportJsonForTask(std::int64_t index) {
  fault::FaultPlanConfig pc;
  pc.horizon = 20;
  pc.num_devices = 2;
  pc.device_fail_rate = 0.05;
  pc.repair_after = 5;
  pc.disk_spike_rate = 0.1;
  pc.tip_loss_rate = 0.02;
  auto plan =
      fault::FaultPlan::Generate(pc, 1000 + static_cast<std::uint64_t>(index));
  EXPECT_TRUE(plan.ok());

  auto config = FaultScenario(index % 2 == 0
                                  ? model::CachePolicy::kReplicated
                                  : model::CachePolicy::kStriped,
                              std::move(plan).value());
  config.sim_duration = 20;
  std::ostringstream sink;  // keep expected burst warnings off stderr
  config.fault_warn_stream = &sink;
  auto result = RunMediaServer(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return std::string();
  return BuildRunReport(config, result.value()).ToJson();
}

TEST(FaultE2eTest, SameSeedSameReportAtAnyThreadCount) {
  constexpr std::int64_t kTasks = 6;
  exp::SweepOptions serial;
  serial.threads = 1;
  auto one = exp::SweepRunner(serial).Map(kTasks, [](exp::TaskContext& ctx) {
    return ReportJsonForTask(ctx.index());
  });
  exp::SweepOptions wide;
  wide.threads = 4;
  auto four = exp::SweepRunner(wide).Map(kTasks, [](exp::TaskContext& ctx) {
    return ReportJsonForTask(ctx.index());
  });
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_FALSE(one[i].empty());
    EXPECT_EQ(one[i], four[i]) << "report " << i << " diverged by thread count";
  }
}

}  // namespace
}  // namespace memstream::server
