#include "server/media_server.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/profiles.h"
#include "model/timecycle.h"

namespace memstream::server {

const char* ServerModeName(ServerMode mode) {
  switch (mode) {
    case ServerMode::kDirect:
      return "direct";
    case ServerMode::kMemsBuffer:
      return "mems-buffer";
    case ServerMode::kMemsCache:
      return "mems-cache";
  }
  return "?";
}

namespace {

/// Spreads n sequential extents evenly across the device span so the
/// elevator has realistic work to do.
std::vector<StreamSpec> PlaceStreams(std::int64_t n,
                                     BytesPerSecond bit_rate,
                                     Bytes device_capacity, Bytes min_extent) {
  std::vector<StreamSpec> streams;
  streams.reserve(static_cast<std::size_t>(n));
  const Bytes span = device_capacity * 0.9;
  const Bytes stride = span / static_cast<double>(n);
  const Bytes extent = std::max(min_extent, stride * 0.9);
  for (std::int64_t i = 0; i < n; ++i) {
    StreamSpec s;
    s.id = i;
    s.bit_rate = bit_rate;
    s.disk_offset = std::min(stride * static_cast<double>(i),
                             device_capacity - extent);
    s.extent = extent;
    streams.push_back(s);
  }
  return streams;
}

/// Builds the auditor shell shared by all modes: cycle lengths, Eq. 7/8
/// parameters, and the margin/trace sinks. Stream registration is
/// mode-specific; callers AddStream() in spec order, then Seal().
std::shared_ptr<obs::QosAuditor> MakeAuditor(const MediaServerConfig& config,
                                             Seconds disk_cycle,
                                             Seconds mems_cycle,
                                             Bytes mems_device_capacity,
                                             bool nested,
                                             Bytes dram_total_bound) {
  if (!config.audit) return nullptr;
  obs::QosAuditorConfig qc;
  qc.disk_cycle = disk_cycle;
  qc.mems_cycle = mems_cycle;
  qc.mems_devices = nested ? config.k : 0;
  qc.mems_device_capacity = mems_device_capacity;
  qc.nested_cycles = nested;
  qc.dram_total_bound = dram_total_bound;
  qc.metrics = config.metrics;
  qc.trace = config.trace;
  return std::make_shared<obs::QosAuditor>(qc);
}

/// The sinks the run's probe feeds: the config's, plus its auditor.
obs::ServerSinks Sinks(const MediaServerConfig& config,
                       obs::QosAuditor* auditor) {
  return {config.metrics, auditor, config.timelines, config.journal,
          config.slo};
}

/// Builds the run's injector when the config schedules faults.
std::shared_ptr<fault::FaultInjector> MakeInjector(
    const MediaServerConfig& config) {
  if (config.fault_plan.empty()) return nullptr;
  fault::FaultInjectorConfig fc;
  fc.metrics = config.metrics;
  fc.trace = config.trace;
  fc.warn_stream = config.fault_warn_stream;
  return std::make_shared<fault::FaultInjector>(config.fault_plan, fc);
}

Result<MediaServerResult> RunDirect(const MediaServerConfig& config) {
  auto disk = device::DiskDrive::Create(config.disk);
  MEMSTREAM_RETURN_IF_ERROR(disk.status());

  model::DeviceProfile profile =
      model::DiskProfileConservative(disk.value(), config.num_streams);
  auto cycle =
      model::IoCycleLength(config.num_streams, config.bit_rate, profile);
  MEMSTREAM_RETURN_IF_ERROR(cycle.status());
  auto dram = model::TotalBufferSize(config.num_streams, config.bit_rate,
                                     profile);
  MEMSTREAM_RETURN_IF_ERROR(dram.status());

  DirectServerConfig server_config;
  server_config.cycle = cycle.value();
  server_config.deterministic = config.deterministic;
  server_config.seed = config.seed;
  const Bytes io = config.bit_rate * cycle.value();
  auto streams = PlaceStreams(config.num_streams, config.bit_rate,
                              disk.value().Capacity(), 2 * io);
  // Theorem 1 executable bounds: the double-buffered schedule holds at
  // most two IOs per stream, so per-stream DRAM <= 2·B̄·T.
  auto auditor = MakeAuditor(config, cycle.value(), 0, 0, false,
                             2 * dram.value());
  if (auditor != nullptr) {
    for (const auto& s : streams) {
      auditor->AddStream(s.id, s.bit_rate, 2 * io, obs::QosDomain::kDisk);
    }
    auditor->Seal();
  }
  obs::ServerProbe probe(Sinks(config, auditor.get()));
  server_config.probe = &probe;
  auto faults = MakeInjector(config);
  server_config.faults = faults.get();
  auto server = DirectStreamingServer::Create(&disk.value(),
                                              std::move(streams),
                                              server_config, config.trace);
  MEMSTREAM_RETURN_IF_ERROR(server.status());
  MEMSTREAM_RETURN_IF_ERROR(server.value().Run(config.sim_duration));

  const ServerReport& report = server.value().report();
  MediaServerResult out;
  out.analytic_dram_total = dram.value();
  out.disk_cycle = cycle.value();
  out.qos = report.qos;
  out.cycle_overruns = report.cycle_overruns;
  out.sim_peak_dram = report.peak_buffer_demand;
  out.disk_utilization = report.device_utilization;
  out.ios_completed = report.ios_completed;
  out.auditor = std::move(auditor);
  out.faults = std::move(faults);
  return out;
}

Result<MediaServerResult> RunBuffer(const MediaServerConfig& config) {
  auto disk = device::DiskDrive::Create(config.disk);
  MEMSTREAM_RETURN_IF_ERROR(disk.status());
  auto mems_proto = device::MemsDevice::Create(config.mems);
  MEMSTREAM_RETURN_IF_ERROR(mems_proto.status());

  model::MemsBufferParams params;
  params.k = config.k;
  params.disk = model::DiskProfileConservative(disk.value(), config.num_streams);
  params.mems = model::MemsProfileMaxLatency(mems_proto.value());

  auto range = model::FeasibleTdiskRange(config.num_streams,
                                         config.bit_rate, params);
  MEMSTREAM_RETURN_IF_ERROR(range.status());
  Seconds t_disk = config.t_disk_override > 0
                       ? config.t_disk_override
                       : std::min(range.value().lower * 1.5,
                                  range.value().upper);
  auto sizing = model::SolveMemsBuffer(config.num_streams, config.bit_rate,
                                       params, t_disk);
  MEMSTREAM_RETURN_IF_ERROR(sizing.status());

  std::vector<device::MemsDevice> bank;
  for (std::int64_t i = 0; i < config.k; ++i) {
    device::MemsParameters p = config.mems;
    p.name += '#';
    p.name += std::to_string(i);
    auto dev = device::MemsDevice::Create(p);
    MEMSTREAM_RETURN_IF_ERROR(dev.status());
    bank.push_back(std::move(dev).value());
  }

  MemsPipelineConfig server_config;
  server_config.t_disk = sizing.value().t_disk;
  server_config.t_mems = sizing.value().t_mems_snapped;
  server_config.deterministic = config.deterministic;
  server_config.seed = config.seed;
  const Bytes io = config.bit_rate * server_config.t_disk;
  auto streams = PlaceStreams(config.num_streams, config.bit_rate,
                              disk.value().Capacity(), 2 * io);
  // Theorem 2 executable bounds: DRAM deposits are MEMS-cycle sized, so
  // per-stream DRAM <= 2·B̄·T_mems (catch-up reads only refill what a
  // starved cycle skipped). MEMS-side reads are legally partial, so only
  // the disk cycle's one-IO-per-stream invariant is byte-audited.
  const Bytes mems_io = config.bit_rate * server_config.t_mems;
  auto auditor = MakeAuditor(
      config, server_config.t_disk, server_config.t_mems,
      params.mems.capacity, /*nested=*/true,
      static_cast<double>(config.num_streams) * 2 * mems_io);
  if (auditor != nullptr) {
    for (const auto& s : streams) {
      auditor->AddStream(s.id, s.bit_rate, 2 * mems_io,
                         obs::QosDomain::kDisk);
    }
    auditor->Seal();
  }
  obs::ServerProbe probe(Sinks(config, auditor.get()));
  server_config.probe = &probe;
  auto faults = MakeInjector(config);
  server_config.faults = faults.get();
  auto server = MemsPipelineServer::Create(&disk.value(), std::move(bank),
                                           std::move(streams), server_config,
                                           config.trace);
  MEMSTREAM_RETURN_IF_ERROR(server.status());
  MEMSTREAM_RETURN_IF_ERROR(server.value().Run(config.sim_duration));

  const MemsPipelineReport& report = server.value().report();
  MediaServerResult out;
  out.analytic_dram_total =
      static_cast<double>(config.num_streams) *
      sizing.value().s_mems_dram_schedulable;
  out.disk_cycle = sizing.value().t_disk;
  out.mems_cycle = sizing.value().t_mems_snapped;
  out.qos = report.qos;
  out.cycle_overruns = report.disk_overruns + report.mems_overruns;
  out.sim_peak_dram = report.peak_dram_demand;
  out.disk_utilization = report.disk_utilization;
  out.mems_utilization = report.mems_utilization;
  out.ios_completed = report.ios_completed;
  out.auditor = std::move(auditor);
  out.faults = std::move(faults);
  return out;
}

Result<MediaServerResult> RunCache(const MediaServerConfig& config) {
  auto disk = device::DiskDrive::Create(config.disk);
  MEMSTREAM_RETURN_IF_ERROR(disk.status());
  auto mems_proto = device::MemsDevice::Create(config.mems);
  MEMSTREAM_RETURN_IF_ERROR(mems_proto.status());

  const auto n_cache = static_cast<std::int64_t>(
      std::llround(config.cached_fraction_of_streams *
                   static_cast<double>(config.num_streams)));
  const std::int64_t n_disk = config.num_streams - n_cache;
  if (n_cache < 0 || n_disk < 0) {
    return Status::InvalidArgument("cached_fraction_of_streams out of range");
  }

  model::DeviceProfile mems_profile =
      model::MemsProfileMaxLatency(mems_proto.value());

  MediaServerResult out;
  Seconds disk_cycle = 0;
  if (n_disk > 0) {
    model::DeviceProfile disk_profile =
        model::DiskProfileConservative(disk.value(), n_disk);
    auto cycle = model::IoCycleLength(n_disk, config.bit_rate, disk_profile);
    MEMSTREAM_RETURN_IF_ERROR(cycle.status());
    disk_cycle = cycle.value();
    auto dram =
        model::TotalBufferSize(n_disk, config.bit_rate, disk_profile);
    MEMSTREAM_RETURN_IF_ERROR(dram.status());
    out.analytic_dram_total += dram.value();
  }
  Seconds mems_cycle = 0;
  if (n_cache > 0) {
    auto s = model::CachePerStreamBuffer(n_cache, config.bit_rate, config.k,
                                         mems_profile, config.cache_policy);
    MEMSTREAM_RETURN_IF_ERROR(s.status());
    mems_cycle = s.value() / config.bit_rate;
    out.analytic_dram_total += static_cast<double>(n_cache) * s.value();
  }

  std::vector<device::MemsDevice> bank;
  for (std::int64_t i = 0; i < config.k; ++i) {
    device::MemsParameters p = config.mems;
    p.name += '#';
    p.name += std::to_string(i);
    auto dev = device::MemsDevice::Create(p);
    MEMSTREAM_RETURN_IF_ERROR(dev.status());
    bank.push_back(std::move(dev).value());
  }
  const Bytes bank_content =
      config.cache_policy == model::CachePolicy::kStriped
          ? mems_profile.capacity * static_cast<double>(config.k)
          : mems_profile.capacity;

  std::vector<CacheStreamSpec> streams;
  streams.reserve(static_cast<std::size_t>(config.num_streams));
  if (n_disk > 0) {
    const Bytes io = config.bit_rate * disk_cycle;
    for (auto& s : PlaceStreams(n_disk, config.bit_rate,
                                disk.value().Capacity(), 2 * io)) {
      CacheStreamSpec spec;
      spec.id = s.id;
      spec.bit_rate = s.bit_rate;
      spec.cached = false;
      spec.offset = s.disk_offset;
      spec.extent = s.extent;
      streams.push_back(spec);
    }
  }
  if (n_cache > 0) {
    const Bytes io = config.bit_rate * mems_cycle;
    for (auto& s :
         PlaceStreams(n_cache, config.bit_rate, bank_content, 2 * io)) {
      CacheStreamSpec spec;
      spec.id = n_disk + s.id;
      spec.bit_rate = s.bit_rate;
      spec.cached = true;
      spec.offset = s.disk_offset;
      spec.extent = s.extent;
      streams.push_back(spec);
    }
  }

  auto faults = MakeInjector(config);
  std::shared_ptr<fault::DegradationManager> degradation;
  if (faults != nullptr && config.degrade) {
    // Cached content also lives on disk (it was staged from there), so
    // degradation can fall cached streams back to the Theorem 1 path.
    if (n_cache > 0) {
      const Seconds eff_disk_cycle = disk_cycle > 0 ? disk_cycle : 1.0;
      const Bytes io = config.bit_rate * eff_disk_cycle;
      auto backing = PlaceStreams(n_cache, config.bit_rate,
                                  disk.value().Capacity(), 2 * io);
      for (std::int64_t j = 0; j < n_cache; ++j) {
        auto& spec = streams[static_cast<std::size_t>(n_disk + j)];
        spec.backing_offset = backing[static_cast<std::size_t>(j)].disk_offset;
        spec.backing_extent = backing[static_cast<std::size_t>(j)].extent;
      }
    }
    fault::DegradationConfig dc;
    dc.policy = config.cache_policy;
    dc.k = config.k;
    dc.bit_rate = config.bit_rate;
    dc.mems = mems_profile;
    // Size the fallback against the worst case: every stream on disk.
    dc.disk = model::DiskProfileConservative(disk.value(), config.num_streams);
    dc.n_disk = n_disk;
    dc.n_cache = n_cache;
    dc.refill_delay = config.fault_refill_delay;
    auto dm = fault::DegradationManager::Create(dc);
    MEMSTREAM_RETURN_IF_ERROR(dm.status());
    degradation =
        std::make_shared<fault::DegradationManager>(std::move(dm).value());
  }

  CacheServerConfig server_config;
  server_config.disk_cycle = disk_cycle > 0 ? disk_cycle : 1.0;
  server_config.mems_cycle = mems_cycle > 0 ? mems_cycle : 1.0;
  server_config.policy = config.cache_policy;
  server_config.deterministic = config.deterministic;
  server_config.seed = config.seed;
  // Theorem 3/4 executable bounds: each side's double-buffered schedule
  // holds at most two cycle-sized IOs per stream.
  const Bytes disk_io = config.bit_rate * disk_cycle;
  const Bytes cache_io = config.bit_rate * mems_cycle;
  auto auditor = MakeAuditor(
      config, disk_cycle, mems_cycle, 0, /*nested=*/false,
      static_cast<double>(n_disk) * 2 * disk_io +
          static_cast<double>(n_cache) * 2 * cache_io);
  if (auditor != nullptr) {
    std::int64_t cached_seen = 0;
    for (const auto& s : streams) {
      if (s.cached) {
        // Replicated policy: device j services every (j + i*k)-th cached
        // stream; striped cycles close all kMems streams at once.
        const std::int64_t device =
            config.cache_policy == model::CachePolicy::kReplicated
                ? cached_seen % config.k
                : 0;
        auditor->AddStream(s.id, s.bit_rate, 2 * cache_io,
                           obs::QosDomain::kMems, device);
        ++cached_seen;
      } else {
        auditor->AddStream(s.id, s.bit_rate, 2 * disk_io,
                           obs::QosDomain::kDisk);
      }
    }
    auditor->Seal();
  }
  obs::ServerProbe probe(Sinks(config, auditor.get()));
  server_config.probe = &probe;
  server_config.faults = faults.get();
  server_config.degradation = degradation.get();
  auto server = CacheStreamingServer::Create(
      &disk.value(), std::move(bank), std::move(streams), server_config,
      config.trace);
  MEMSTREAM_RETURN_IF_ERROR(server.status());
  MEMSTREAM_RETURN_IF_ERROR(server.value().Run(config.sim_duration));

  const CacheServerReport& report = server.value().report();
  out.disk_cycle = disk_cycle;
  out.mems_cycle = mems_cycle;
  out.qos = report.qos;
  out.auditor = std::move(auditor);
  out.faults = std::move(faults);
  out.cycle_overruns = report.disk_overruns + report.mems_overruns;
  out.sim_peak_dram = report.peak_dram_demand;
  out.disk_utilization = report.disk_utilization;
  out.mems_utilization = report.mems_utilization;
  out.ios_completed = report.ios_completed;
  return out;
}

}  // namespace

Result<MediaServerResult> RunMediaServer(const MediaServerConfig& config) {
  if (config.num_streams < 1) {
    return Status::InvalidArgument("num_streams must be >= 1");
  }
  if (config.bit_rate <= 0) {
    return Status::InvalidArgument("bit_rate must be > 0");
  }
  if (config.k < 1 && config.mode != ServerMode::kDirect) {
    return Status::InvalidArgument("k must be >= 1 for MEMS modes");
  }
  auto run = [&]() -> Result<MediaServerResult> {
    switch (config.mode) {
      case ServerMode::kDirect:
        return RunDirect(config);
      case ServerMode::kMemsBuffer:
        return RunBuffer(config);
      case ServerMode::kMemsCache:
        return RunCache(config);
    }
    return Status::InvalidArgument("unknown mode");
  }();
  if (run.ok()) {
    // Servers mark their own departures; Finalize only sweeps up streams
    // an aborted run never departed, then the summary goes to metrics.
    if (config.journal != nullptr) {
      config.journal->Finalize(config.sim_duration);
      config.journal->PublishSummary(config.metrics);
    }
    if (config.slo != nullptr) config.slo->PublishGauges(config.metrics);
  }
  return run;
}

obs::RunReport BuildRunReport(const MediaServerConfig& config,
                              const MediaServerResult& result,
                              const obs::MetricsRegistry* metrics) {
  obs::RunReport report;
  report.title = std::string("media-server ") + ServerModeName(config.mode);
  report.AddConfig("mode", ServerModeName(config.mode));
  report.AddConfig("disk", config.disk.name);
  report.AddConfig("mems", config.mems.name);
  report.AddConfig("k", std::to_string(config.k));
  report.AddConfig("num_streams", std::to_string(config.num_streams));
  report.AddConfig("bit_rate_mbps", std::to_string(config.bit_rate / kMBps));
  report.AddConfig("sim_duration_s", std::to_string(config.sim_duration));
  report.AddConfig("deterministic", config.deterministic ? "true" : "false");
  report.AddConfig("seed", std::to_string(config.seed));

  report.AddAnalytic("dram_total_bytes", result.analytic_dram_total);
  report.AddAnalytic("disk_cycle_s", result.disk_cycle);
  report.AddAnalytic("mems_cycle_s", result.mems_cycle);

  report.AddSimulated("underflow_events",
                      static_cast<double>(result.qos.underflow_events));
  report.AddSimulated("underflow_time_s", result.qos.underflow_time);
  report.AddSimulated("cycle_overruns",
                      static_cast<double>(result.cycle_overruns));
  report.AddSimulated("peak_dram_bytes", result.sim_peak_dram);
  report.AddSimulated("disk_utilization", result.disk_utilization);
  report.AddSimulated("mems_utilization", result.mems_utilization);
  report.AddSimulated("ios_completed",
                      static_cast<double>(result.ios_completed));
  report.AddSimulated("qos_violations",
                      static_cast<double>(result.qos.violations));

  report.metrics = metrics;
  report.qos = result.auditor.get();
  report.timelines = config.timelines;
  report.streams = config.journal;
  report.slo = config.slo;
  if (result.faults != nullptr) report.faults = &result.faults->block();
  if (config.trace != nullptr) {
    report.trace_dropped_records = config.trace->dropped_records();
  }
  return report;
}

}  // namespace memstream::server
