// obs::ServerProbe: the one telemetry seam of the simulated servers.
//
// Unit cases pin the probe's own contract (null sinks, the underflow
// delta scan, run-end departures, degradation verdicts). The golden
// cases run direct, MEMS-buffer, replicated-cache and striped-cache
// servers (both caches under a fault plan) through the MediaServer
// facade, plus an EDF server, each with metrics, auditor, timelines,
// journal and SLO monitor attached, and compare BuildRunReport's JSON
// byte for byte with tests/golden/reports/. The two wall-clock gauges
// (sim.wall_seconds, sim.events_per_sec_wall) are dropped before the
// comparison; everything else in a report is simulated and exact.
// On a mismatch the produced report is written next to the test binary
// as <name>.report.json.actual.

#include "obs/server_probe.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "device/device_catalog.h"
#include "fault/fault_plan.h"
#include "server/edf_server.h"
#include "server/media_server.h"
#include "sim/trace.h"

namespace memstream::obs {
namespace {

TEST(ServerProbeTest, NullSinksAreNoOps) {
  ServerProbe probe(ServerSinks{});
  EXPECT_TRUE(probe.CheckStreamCount(3).ok());
  probe.Open("server.test", 2);
  probe.AddCycle(CycleDomain::kDisk, "", 1.0, true, "device.d.util");
  probe.AddStream(0, 1e6, 2e6);
  probe.AddStream(1, 1e6, 2e6, /*playback=*/false);
  probe.IoIssued(0, 1e6);
  probe.IoCompleted(0, 0.5, 1e6, 1e6);
  probe.CycleClosed(CycleDomain::kDisk, 0, 0.0, 0.5, 1.0, false,
                    [](std::size_t) { return std::int64_t{1}; });
  probe.StreamUnderflows(0, 1.0, 2);
  probe.Shed(0, 1.0);
  probe.Readmitted(0, 2.0);
  probe.RunFinished(3.0, [](std::size_t) { return std::int64_t{2}; });
  EXPECT_EQ(probe.metrics(), nullptr);
  EXPECT_EQ(probe.auditor(), nullptr);
}

TEST(ServerProbeTest, CheckStreamCountMatchesAuditorRegistration) {
  QosAuditor auditor(QosAuditorConfig{});
  auditor.AddStream(0, 1e6, 2e6);
  ServerSinks sinks;
  sinks.auditor = &auditor;
  ServerProbe probe(sinks);
  EXPECT_TRUE(probe.CheckStreamCount(1).ok());
  EXPECT_EQ(probe.CheckStreamCount(2).code(), StatusCode::kInvalidArgument);
}

// Cumulative underflow counts reach the journal as per-cycle deltas, the
// underflow SLO counts bad playback streams per scanned cycle, and
// recording streams (count 0) never count as bad.
TEST(ServerProbeTest, CycleScanJournalsUnderflowDeltasOnce) {
  MetricsRegistry metrics;
  TimelineRecorder timelines;
  StreamJournal journal;
  SloMonitor slo;
  ServerSinks sinks;
  sinks.metrics = &metrics;
  sinks.timelines = &timelines;
  sinks.journal = &journal;
  sinks.slo = &slo;
  ServerProbe probe(sinks);
  probe.Open("server.test", 2);
  probe.AddStream(7, 1e6, 2e6);
  probe.AddStream(8, 1e6, 3e6, /*playback=*/false);
  probe.AddCycle(CycleDomain::kDisk, "disk.", 1.0);

  std::vector<std::int64_t> underflows = {0, 0};
  auto of = [&](std::size_t i) { return underflows[i]; };
  probe.IoIssued(0, 1e6);
  probe.IoCompleted(0, 0.4, 1e6, 1e6);
  probe.CycleClosed(CycleDomain::kDisk, 0, 0.0, 0.5, 1.0, false, of);
  underflows[0] = 2;
  probe.CycleClosed(CycleDomain::kDisk, 0, 1.0, 1.5, 1.0, true, of);
  probe.CycleClosed(CycleDomain::kDisk, 0, 2.5, 0.5, 1.0, false, of);
  underflows[0] = 3;
  probe.RunFinished(4.0, of);

  const StreamJournalEntry& read = journal.entry(0);
  EXPECT_EQ(read.stream_id, 7);
  EXPECT_EQ(read.ios, 1);
  EXPECT_EQ(read.underflows, 3);
  EXPECT_EQ(read.phase, StreamPhase::kDeparted);
  EXPECT_EQ(journal.entry(1).underflows, 0);
  EXPECT_EQ(journal.entry(1).phase, StreamPhase::kDeparted);

  const Slo* uf = slo.Find("underflow");
  ASSERT_NE(uf, nullptr);
  EXPECT_EQ(uf->good(), 2);  // one playback stream, three scans
  EXPECT_EQ(uf->bad(), 1);
  const Slo* slack = slo.Find("cycle_slack");
  ASSERT_NE(slack, nullptr);
  EXPECT_EQ(slack->bad(), 1);
  EXPECT_EQ(slo.Find("availability"), nullptr);

  EXPECT_DOUBLE_EQ(metrics.FindCounter("server.test.ios")->value(), 1);
  EXPECT_DOUBLE_EQ(metrics.FindCounter("server.test.disk.cycles")->value(),
                   3);
  EXPECT_EQ(metrics.FindCounter("server.test.disk.cycle_overruns"), nullptr);
  EXPECT_NE(metrics.FindTimeWeighted("stream.7.dram_bytes"), nullptr);
  EXPECT_NE(metrics.FindTimeWeighted("stream.8.staging_bytes"), nullptr);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines.series()[0].points().size(), 1u);
}

TEST(ServerProbeTest, VerdictsReachJournalAndAuditor) {
  QosAuditorConfig qc;
  qc.mems_cycle = 1.0;
  QosAuditor auditor(qc);
  auditor.AddStream(0, 1e6, 2e6, QosDomain::kMems);
  auditor.AddStream(1, 1e6, 4e6, QosDomain::kMems);
  auditor.Seal();
  StreamJournal journal;
  SloMonitor slo;
  ServerSinks sinks;
  sinks.auditor = &auditor;
  sinks.journal = &journal;
  sinks.slo = &slo;
  ServerProbe probe(sinks);
  probe.Open("server.test", 2);
  probe.TrackAvailability();
  probe.AddStream(0, 1e6, 2e6);
  probe.AddStream(1, 1e6, 2e6);

  probe.Shed(1, 1.0);
  EXPECT_EQ(journal.entry(1).phase, StreamPhase::kShed);
  probe.CycleClosed(CycleDomain::kMems, -1, 1.0, 0.5, 1.0, false,
                    [](std::size_t) { return std::int64_t{0}; }, 1);
  const Slo* availability = slo.Find("availability");
  ASSERT_NE(availability, nullptr);
  EXPECT_EQ(availability->good(), 1);
  EXPECT_EQ(availability->bad(), 1);
  probe.Readmitted(1, 2.0);
  EXPECT_EQ(journal.entry(1).readmits, 1);
  probe.Degraded(0, 2.0, 1);
  EXPECT_EQ(journal.entry(0).phase, StreamPhase::kDegraded);

  probe.DramBound(1, 1e6);
  probe.DramTotalFromStreams();
  EXPECT_DOUBLE_EQ(auditor.stream_dram_bound_sum(), 3e6);
}

// --- golden run reports ---

std::string DropWallClockGauges(std::string json) {
  for (const char* name : {"sim.events_per_sec_wall", "sim.wall_seconds"}) {
    std::string key = "{\"name\":\"";
    key += name;
    key += '"';
    for (std::size_t at; (at = json.find(key)) != std::string::npos;) {
      std::size_t end = json.find('}', at) + 1;
      if (end < json.size() && json[end] == ',') ++end;
      json.erase(at, end - at);
    }
  }
  for (std::size_t p; (p = json.find(",]")) != std::string::npos;) {
    json.erase(p, 1);
  }
  return json;
}

void ExpectGolden(const std::string& name, const std::string& json) {
  const std::string produced = DropWallClockGauges(json);
  const std::string path =
      std::string(MEMSTREAM_GOLDEN_DIR) + "/reports/" + name + ".report.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  if (produced != golden.str()) {
    std::ofstream(name + ".report.json.actual") << produced;
    FAIL() << name << ": run report differs from " << path << " (see "
           << name << ".report.json.actual)";
  }
}

fault::FaultPlan OutagePlan() {
  std::vector<fault::FaultEvent> events;
  events.push_back({3.0, fault::FaultKind::kMemsTipLoss, 0, 0.2, 0});
  events.push_back(
      {4.0, fault::FaultKind::kDiskLatencySpike, -1, 2 * kMillisecond, 1.0});
  events.push_back({5.0, fault::FaultKind::kMemsDeviceFail, 1, 0, 0});
  events.push_back({8.0, fault::FaultKind::kMemsDeviceRepair, 1, 0, 3.0});
  return fault::FaultPlan::FromScript(std::move(events));
}

void RunModeGolden(const std::string& name, server::MediaServerConfig config,
                   bool traced) {
  MetricsRegistry metrics;
  TimelineRecorder timelines(TimelineOptions{32});
  StreamJournal journal;
  SloMonitor slo;
  sim::TraceLog trace(1 << 10);
  std::ostringstream warnings;
  config.num_streams = 12;
  config.bit_rate = 1 * kMBps;
  config.sim_duration = 12;
  config.metrics = &metrics;
  config.timelines = &timelines;
  config.journal = &journal;
  config.slo = &slo;
  config.audit = true;
  config.trace = traced ? &trace : nullptr;
  config.fault_warn_stream = &warnings;
  auto result = server::RunMediaServer(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGolden(name,
               server::BuildRunReport(config, result.value(), &metrics)
                   .ToJson());
}

TEST(ServerProbeGoldenTest, DirectReportUnchanged) {
  server::MediaServerConfig config;
  config.mode = server::ServerMode::kDirect;
  RunModeGolden("direct", config, /*traced=*/false);
}

TEST(ServerProbeGoldenTest, MemsBufferReportUnchanged) {
  server::MediaServerConfig config;
  config.mode = server::ServerMode::kMemsBuffer;
  config.k = 2;
  RunModeGolden("mems_buffer", config, /*traced=*/true);
}

TEST(ServerProbeGoldenTest, ReplicatedCacheFaultReportUnchanged) {
  server::MediaServerConfig config;
  config.mode = server::ServerMode::kMemsCache;
  config.cache_policy = model::CachePolicy::kReplicated;
  config.k = 2;
  config.fault_plan = OutagePlan();
  RunModeGolden("cache_replicated", config, /*traced=*/false);
}

TEST(ServerProbeGoldenTest, StripedCacheFaultReportUnchanged) {
  server::MediaServerConfig config;
  config.mode = server::ServerMode::kMemsCache;
  config.cache_policy = model::CachePolicy::kStriped;
  config.k = 2;
  config.fault_plan = OutagePlan();
  RunModeGolden("cache_striped", config, /*traced=*/true);
}

TEST(ServerProbeGoldenTest, EdfReportUnchanged) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  MetricsRegistry metrics;
  TimelineRecorder timelines(TimelineOptions{32});
  StreamJournal journal;
  SloMonitor slo;
  QosAuditorConfig qc;
  qc.metrics = &metrics;
  QosAuditor auditor(qc);
  server::EdfServerConfig config;
  config.io_playback = 0.5;
  std::vector<server::StreamSpec> streams;
  for (int i = 0; i < 8; ++i) {
    server::StreamSpec s;
    s.id = i;
    s.bit_rate = 1 * kMBps;
    s.disk_offset = static_cast<double>(i) * 10 * kGB;
    s.extent = 5 * kGB;
    streams.push_back(s);
    auditor.AddStream(s.id, s.bit_rate, 2 * s.bit_rate * config.io_playback,
                      QosDomain::kNone);
  }
  auditor.Seal();
  ServerSinks sinks;
  sinks.metrics = &metrics;
  sinks.auditor = &auditor;
  sinks.timelines = &timelines;
  sinks.journal = &journal;
  sinks.slo = &slo;
  ServerProbe probe(sinks);
  config.probe = &probe;
  auto server = server::EdfStreamingServer::Create(&disk, streams, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().Run(10.0).ok());
  journal.Finalize(10.0);
  journal.PublishSummary(&metrics);
  slo.PublishGauges(&metrics);

  RunReport report;
  report.title = "edf";
  report.AddSimulated(
      "ios_completed",
      static_cast<double>(server.value().report().ios_completed));
  report.AddSimulated(
      "deadline_misses",
      static_cast<double>(server.value().report().deadline_misses));
  report.metrics = &metrics;
  report.qos = &auditor;
  report.timelines = &timelines;
  report.streams = &journal;
  report.slo = &slo;
  ExpectGolden("edf", report.ToJson());
}

}  // namespace
}  // namespace memstream::obs
