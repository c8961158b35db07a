#include "farm/sharded_farm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/profiler.h"
#include "model/timecycle.h"
#include "obs/qos_auditor.h"
#include "obs/server_probe.h"
#include "server/timecycle_server.h"
#include "workload/popularity.h"

namespace memstream::farm {
namespace {

/// One admitted stream's routing state. shard == -1 while shed.
struct StreamRec {
  std::int64_t title = 0;
  std::int32_t shard = -1;
};

/// Per-stream activity of one epoch, collected only when a journal is
/// attached (the million-stream bench runs journal-free).
struct StreamEpoch {
  std::int64_t id = 0;
  std::int64_t ios = 0;
  Bytes bytes = 0;
  Bytes peak = 0;
  std::int64_t underflows = 0;
};

/// What one shard did during one epoch (the SweepRunner task row).
struct ShardEpoch {
  bool ran = false;
  std::string error;  ///< non-empty = the task failed
  std::int64_t streams = 0;
  std::int64_t cycles = 0;
  std::int64_t ios = 0;
  std::int64_t overruns = 0;
  std::int64_t underflows = 0;
  std::int64_t violations = 0;
  Bytes peak_dram = 0;
  Seconds busy = 0;
  std::vector<StreamEpoch> per_stream;
};

Status Validate(const ShardedFarmConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.num_titles < 1) {
    return Status::InvalidArgument("num_titles must be >= 1");
  }
  if (config.offered_streams < 0) {
    return Status::InvalidArgument("offered_streams must be >= 0");
  }
  if (config.bit_rate <= 0) {
    return Status::InvalidArgument("bit_rate must be > 0");
  }
  if (config.duration <= 0) {
    return Status::InvalidArgument("duration must be > 0");
  }
  return Status::OK();
}

/// Fail/repair boundaries inside (0, duration), deduplicated.
std::vector<Seconds> EpochBoundaries(const ShardedFarmConfig& config) {
  std::vector<Seconds> cuts;
  for (const fault::FaultEvent& e : config.faults.events()) {
    const bool node_event = e.kind == fault::FaultKind::kMemsDeviceFail ||
                            e.kind == fault::FaultKind::kMemsDeviceRepair;
    if (!node_event || e.device < 0 || e.device >= config.num_shards) {
      continue;
    }
    if (e.time > 0 && e.time < config.duration) cuts.push_back(e.time);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

}  // namespace

Result<FarmRunReport> RunShardedFarm(const ShardedFarmConfig& config) {
  MEMSTREAM_RETURN_IF_ERROR(Validate(config));

  PlacementConfig pc;
  pc.num_shards = config.num_shards;
  pc.num_titles = config.num_titles;
  pc.replicas = config.replicas;
  pc.virtual_nodes = config.virtual_nodes;
  pc.zipf_exponent = config.zipf_exponent;
  pc.replication_budget = config.replication_budget;
  pc.seed = config.seed;
  auto placement = MakePlacement(config.policy, pc);
  MEMSTREAM_RETURN_IF_ERROR(placement.status());

  // One probe node for the admission model; the per-epoch tasks build
  // their own copies (tasks must not share mutable device state).
  auto probe = device::DiskDrive::Create(config.node_disk);
  MEMSTREAM_RETURN_IF_ERROR(probe.status());

  RouterConfig rc;
  rc.dram_budget_per_shard = config.dram_budget_per_shard;
  rc.node_rate = probe.value().parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(probe.value());
  auto router = AdmissionRouter::Create(placement.value().get(), rc);
  MEMSTREAM_RETURN_IF_ERROR(router.status());

  FarmRunReport farm;
  farm.policy = placement.value()->name();
  farm.shards = config.num_shards;
  farm.titles = config.num_titles;
  farm.total_copies = placement.value()->total_copies();
  farm.offered = config.offered_streams;
  farm.duration = config.duration;
  farm.per_shard.resize(static_cast<std::size_t>(config.num_shards));
  for (std::int64_t s = 0; s < config.num_shards; ++s) {
    farm.per_shard[static_cast<std::size_t>(s)].shard =
        static_cast<std::int32_t>(s);
  }

  // --- t = 0 admission wave -------------------------------------------
  auto sampler =
      workload::ZipfSampler::Create(config.num_titles, config.zipf_exponent);
  MEMSTREAM_RETURN_IF_ERROR(sampler.status());
  Rng rng(config.seed);
  std::vector<StreamRec> streams;
  streams.reserve(static_cast<std::size_t>(config.offered_streams));
  {
    PROF_SCOPE("farm.admission_wave");
    for (std::int64_t i = 0; i < config.offered_streams; ++i) {
      const std::int64_t title = sampler.value().Sample(rng);
      RouteDecision d = router.value().Route(title, config.bit_rate);
      if (d.admitted) {
        streams.push_back({title, d.shard});
        ++farm.admitted;
      } else {
        ++farm.rejected;
      }
    }
  }

  // Register the admitted streams with the farm journal under the
  // Theorem-1 envelope of their home shard's steady-state cycle.
  if (config.journal != nullptr) {
    std::vector<Seconds> shard_cycle(
        static_cast<std::size_t>(config.num_shards), 0.0);
    for (std::int64_t s = 0; s < config.num_shards; ++s) {
      const std::int64_t n = router.value().admitted_on(
          static_cast<std::int32_t>(s));
      if (n <= 0) continue;
      auto cycle = model::IoCycleLength(n, config.bit_rate,
                                        model::DiskProfile(probe.value(), n));
      if (cycle.ok()) shard_cycle[static_cast<std::size_t>(s)] = cycle.value();
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Seconds t =
          shard_cycle[static_cast<std::size_t>(streams[i].shard)];
      config.journal->EnsureStream(static_cast<std::int64_t>(i),
                                   config.bit_rate,
                                   2 * config.bit_rate * t, 0.0);
    }
  }

  obs::Slo* slo_underflow = nullptr;
  obs::Slo* slo_slack = nullptr;
  obs::Slo* slo_availability = nullptr;
  if (config.slo != nullptr) {
    slo_underflow = config.slo->Add(obs::StandardUnderflowSlo());
    slo_slack = config.slo->Add(obs::StandardCycleSlackSlo());
    slo_availability = config.slo->Add(obs::StandardAvailabilitySlo());
  }

  // --- epochs between node-failure events -----------------------------
  std::vector<Seconds> cuts = EpochBoundaries(config);
  std::vector<Seconds> starts;
  starts.push_back(0.0);
  for (Seconds t : cuts) starts.push_back(t);

  exp::SweepOptions so;
  so.threads = config.threads;
  so.base_seed = config.seed;
  exp::SweepRunner runner(so);

  std::vector<double> up_seconds(
      static_cast<std::size_t>(config.num_shards), 0.0);
  double served_stream_seconds = 0;
  double unserved_stream_seconds = 0;

  for (std::size_t epoch = 0; epoch < starts.size(); ++epoch) {
    const Seconds t0 = starts[epoch];
    const Seconds t1 =
        epoch + 1 < starts.size() ? starts[epoch + 1] : config.duration;
    const Seconds len = t1 - t0;

    // Apply this boundary's fault events (plan order) before running.
    if (epoch > 0) {
      PROF_SCOPE("farm.fault_boundary");
      for (const fault::FaultEvent& e : config.faults.events()) {
        if (e.time != t0 || e.device < 0 || e.device >= config.num_shards) {
          continue;
        }
        const std::int32_t s = static_cast<std::int32_t>(e.device);
        if (e.kind == fault::FaultKind::kMemsDeviceFail) {
          MEMSTREAM_RETURN_IF_ERROR(router.value().SetShardUp(s, false));
          for (std::size_t i = 0; i < streams.size(); ++i) {
            if (streams[i].shard != s) continue;
            MEMSTREAM_RETURN_IF_ERROR(
                router.value().Release(s, config.bit_rate));
            streams[i].shard = -1;
            ++farm.shed_actions;
            ++farm.per_shard[static_cast<std::size_t>(s)].shed;
            if (config.journal != nullptr) {
              const std::ptrdiff_t slot =
                  config.journal->SlotOf(static_cast<std::int64_t>(i));
              if (slot >= 0) {
                config.journal->MarkShed(static_cast<std::size_t>(slot), t0);
              }
            }
            // Fail over: the dead shard is skipped, so this lands on
            // the least-loaded surviving replica (if the title has one
            // with headroom).
            RouteDecision d =
                router.value().Route(streams[i].title, config.bit_rate);
            if (d.admitted) {
              streams[i].shard = d.shard;
              ++farm.failovers;
              ++farm.readmits;
              ++farm.per_shard[static_cast<std::size_t>(d.shard)]
                    .failed_over_in;
              if (config.journal != nullptr) {
                const std::ptrdiff_t slot =
                    config.journal->SlotOf(static_cast<std::int64_t>(i));
                if (slot >= 0) {
                  config.journal->MarkReadmitted(
                      static_cast<std::size_t>(slot), t0);
                }
              }
            }
          }
        } else if (e.kind == fault::FaultKind::kMemsDeviceRepair) {
          MEMSTREAM_RETURN_IF_ERROR(router.value().SetShardUp(s, true));
          for (std::size_t i = 0; i < streams.size(); ++i) {
            if (streams[i].shard != -1) continue;
            RouteDecision d =
                router.value().Route(streams[i].title, config.bit_rate);
            if (!d.admitted) continue;
            streams[i].shard = d.shard;
            ++farm.readmits;
            if (config.journal != nullptr) {
              const std::ptrdiff_t slot =
                  config.journal->SlotOf(static_cast<std::int64_t>(i));
              if (slot >= 0) {
                config.journal->MarkReadmitted(static_cast<std::size_t>(slot),
                                               t0);
              }
            }
          }
        }
      }
    }

    // Constant per-epoch stream sets, ids ascending per shard.
    std::vector<std::vector<std::int64_t>> shard_streams(
        static_cast<std::size_t>(config.num_shards));
    std::int64_t serving = 0;
    {
      PROF_SCOPE("farm.epoch_group");
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (streams[i].shard < 0) continue;
        shard_streams[static_cast<std::size_t>(streams[i].shard)].push_back(
            static_cast<std::int64_t>(i));
        ++serving;
      }
    }
    const std::int64_t shed_now =
        static_cast<std::int64_t>(streams.size()) - serving;
    served_stream_seconds += static_cast<double>(serving) * len;
    unserved_stream_seconds += static_cast<double>(shed_now) * len;

    // One pure task per shard; rows collected in shard order.
    const bool want_per_stream = config.journal != nullptr;
    const ShardedFarmConfig* cfg = &config;
    std::vector<ShardEpoch> rows = runner.Map(
        config.num_shards, [&, cfg](exp::TaskContext& ctx) -> ShardEpoch {
          ShardEpoch row;
          const std::int32_t s = static_cast<std::int32_t>(ctx.index());
          const std::vector<std::int64_t>& ids =
              shard_streams[static_cast<std::size_t>(s)];
          if (!router.value().shard_up(s) || ids.empty()) return row;
          row.streams = static_cast<std::int64_t>(ids.size());

          auto disk = device::DiskDrive::Create(cfg->node_disk);
          if (!disk.ok()) {
            row.error = disk.status().ToString();
            return row;
          }
          const std::int64_t n = row.streams;
          auto cycle = model::IoCycleLength(
              n, cfg->bit_rate, model::DiskProfile(disk.value(), n));
          if (!cycle.ok()) {
            row.error = cycle.status().ToString();
            return row;
          }
          const Seconds t_cycle = cycle.value();
          const Bytes io = cfg->bit_rate * t_cycle;
          const Bytes stride =
              disk.value().Capacity() * 0.9 / static_cast<double>(n);

          std::vector<server::StreamSpec> specs;
          specs.reserve(ids.size());
          for (std::size_t j = 0; j < ids.size(); ++j) {
            server::StreamSpec spec;
            spec.id = ids[j];
            spec.bit_rate = cfg->bit_rate;
            spec.disk_offset = stride * static_cast<double>(j);
            spec.extent = std::max(stride, 2 * io);
            specs.push_back(spec);
          }

          obs::QosAuditorConfig qac;
          qac.disk_cycle = t_cycle;
          obs::QosAuditor auditor(qac);
          obs::ServerSinks sinks;
          sinks.auditor = &auditor;
          obs::ServerProbe probe(sinks);
          server::DirectServerConfig dsc;
          dsc.cycle = t_cycle;
          dsc.deterministic = true;
          dsc.seed = ctx.seed();
          if (cfg->audit) {
            auditor.Reserve(specs.size());
            for (const server::StreamSpec& spec : specs) {
              auditor.AddStream(spec.id, spec.bit_rate,
                                2 * spec.bit_rate * t_cycle,
                                obs::QosDomain::kDisk);
            }
            auditor.Seal();
            dsc.probe = &probe;
          }

          auto server = server::DirectStreamingServer::Create(
              &disk.value(), std::move(specs), dsc);
          if (!server.ok()) {
            row.error = server.status().ToString();
            return row;
          }
          Status run = server.value().Run(len);
          if (!run.ok()) {
            row.error = run.ToString();
            return row;
          }

          const server::ServerReport& rep = server.value().report();
          row.ran = true;
          row.cycles = rep.cycles;
          row.ios = rep.ios_completed;
          row.overruns = rep.cycle_overruns;
          row.underflows = rep.qos.underflow_events;
          row.violations = cfg->audit ? auditor.total_violations() : 0;
          row.peak_dram = rep.peak_buffer_demand;
          // The server always finishes its last cycle, so raw busy time
          // can spill past the epoch; clamp like device_utilization does.
          row.busy = std::min(rep.total_busy, len);
          ctx.AddEvents(rep.ios_completed);
          if (want_per_stream) {
            row.per_stream.reserve(ids.size());
            for (std::size_t j = 0; j < ids.size(); ++j) {
              server::StreamView v = server.value().session(j);
              StreamEpoch se;
              se.id = v.id();
              se.bytes = v.total_deposited();
              se.peak = v.peak_level();
              se.underflows = v.underflow_events();
              se.ios = io > 0 ? static_cast<std::int64_t>(
                                    std::llround(se.bytes / io))
                              : 0;
              row.per_stream.push_back(se);
            }
          }
          return row;
        });

    // Post-barrier merge, shard order: farm totals, then the shared
    // journal/SLO feeds (single thread, deterministic order).
    PROF_SCOPE("farm.merge");
    for (std::int64_t s = 0; s < config.num_shards; ++s) {
      const ShardEpoch& row = rows[static_cast<std::size_t>(s)];
      if (!row.error.empty()) {
        return Status::Internal("shard " + std::to_string(s) +
                                " epoch failed: " + row.error);
      }
      FarmShardReport& sr = farm.per_shard[static_cast<std::size_t>(s)];
      if (router.value().shard_up(static_cast<std::int32_t>(s))) {
        up_seconds[static_cast<std::size_t>(s)] += len;
      }
      if (!row.ran) continue;
      sr.ios_completed += row.ios;
      sr.cycle_overruns += row.overruns;
      sr.underflow_events += row.underflows;
      sr.qos_violations += row.violations;
      sr.peak_dram_demand = std::max(sr.peak_dram_demand, row.peak_dram);
      sr.utilization += row.busy;  // normalized by up_seconds at the end
      farm.ios_completed += row.ios;
      farm.cycle_overruns += row.overruns;
      farm.underflow_events += row.underflows;
      farm.qos_violations += row.violations;

      if (slo_underflow != nullptr) {
        const std::int64_t stream_cycles = row.streams * row.cycles;
        slo_underflow->Record(t1, stream_cycles - row.underflows,
                              row.underflows);
      }
      if (slo_slack != nullptr) {
        slo_slack->Record(t1, row.cycles - row.overruns, row.overruns);
      }
      if (config.journal != nullptr) {
        for (const StreamEpoch& se : row.per_stream) {
          const std::ptrdiff_t slot = config.journal->SlotOf(se.id);
          if (slot < 0) continue;
          config.journal->RecordIoSummary(static_cast<std::size_t>(slot), t1,
                                          se.ios, se.bytes, se.peak);
          if (se.underflows > 0) {
            config.journal->RecordUnderflows(static_cast<std::size_t>(slot),
                                             t1, se.underflows);
          }
        }
      }
    }
    if (slo_availability != nullptr) {
      slo_availability->Record(
          t1, std::llround(static_cast<double>(serving) * len),
          std::llround(static_cast<double>(shed_now) * len));
    }
  }

  // --- final accounting -----------------------------------------------
  for (std::int64_t s = 0; s < config.num_shards; ++s) {
    FarmShardReport& sr = farm.per_shard[static_cast<std::size_t>(s)];
    sr.streams = router.value().admitted_on(static_cast<std::int32_t>(s));
    const double up = up_seconds[static_cast<std::size_t>(s)];
    sr.utilization = up > 0 ? sr.utilization / up : 0.0;
    farm.peak_dram_per_shard =
        std::max(farm.peak_dram_per_shard, sr.peak_dram_demand);
    farm.mean_utilization +=
        sr.utilization / static_cast<double>(config.num_shards);
  }
  const double total_ss = served_stream_seconds + unserved_stream_seconds;
  farm.availability = total_ss > 0 ? served_stream_seconds / total_ss : 1.0;
  farm.sweep = runner.stats();

  if (config.journal != nullptr) config.journal->Finalize(config.duration);
  if (config.metrics != nullptr) {
    config.metrics->gauge("farm.shards")->Set(
        static_cast<double>(farm.shards));
    config.metrics->gauge("farm.admitted")->Set(
        static_cast<double>(farm.admitted));
    config.metrics->gauge("farm.rejected")->Set(
        static_cast<double>(farm.rejected));
    config.metrics->gauge("farm.failovers")->Set(
        static_cast<double>(farm.failovers));
    config.metrics->gauge("farm.shed")->Set(
        static_cast<double>(farm.shed_actions));
    config.metrics->gauge("farm.readmits")->Set(
        static_cast<double>(farm.readmits));
    config.metrics->gauge("farm.availability")->Set(farm.availability);
    config.metrics->gauge("farm.peak_dram_per_shard")->Set(
        static_cast<double>(farm.peak_dram_per_shard));
    config.metrics->gauge("farm.qos_violations")->Set(
        static_cast<double>(farm.qos_violations));
    // Surface the attached SLOs and journal summary as gauges so the
    // farm's metrics block carries slo.* / stream.* alongside farm.*.
    if (config.slo != nullptr) config.slo->PublishGauges(config.metrics);
    if (config.journal != nullptr) {
      config.journal->PublishSummary(config.metrics);
    }
  }
  return farm;
}

obs::FarmBlock BuildFarmBlock(const FarmRunReport& report) {
  obs::FarmBlock block;
  block.policy = report.policy;
  block.shards = report.shards;
  block.titles = report.titles;
  block.total_copies = report.total_copies;
  block.offered = report.offered;
  block.admitted = report.admitted;
  block.rejected = report.rejected;
  block.failovers = report.failovers;
  block.shed = report.shed_actions;
  block.readmits = report.readmits;
  block.availability = report.availability;
  block.peak_dram_per_shard = report.peak_dram_per_shard;
  block.mean_utilization = report.mean_utilization;
  block.per_shard.reserve(report.per_shard.size());
  for (const FarmShardReport& s : report.per_shard) {
    obs::FarmShardEntry e;
    e.shard = s.shard;
    e.streams = s.streams;
    e.ios = s.ios_completed;
    e.underflow_events = s.underflow_events;
    e.cycle_overruns = s.cycle_overruns;
    e.qos_violations = s.qos_violations;
    e.failed_over_in = s.failed_over_in;
    e.shed = s.shed;
    e.peak_dram_bytes = s.peak_dram_demand;
    e.utilization = s.utilization;
    block.per_shard.push_back(e);
  }
  return block;
}

}  // namespace memstream::farm
