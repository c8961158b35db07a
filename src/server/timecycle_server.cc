#include "server/timecycle_server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "obs/exporters.h"

namespace memstream::server {

Result<DirectStreamingServer> DirectStreamingServer::Create(
    device::DiskDrive* disk, std::vector<StreamSpec> streams,
    const DirectServerConfig& config, sim::TraceLog* trace) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.cycle <= 0) return Status::InvalidArgument("cycle must be > 0");
  if (config.staging_ios < 1.0) {
    return Status::InvalidArgument("staging_ios must be >= 1");
  }
  for (const auto& s : streams) {
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0 ||
        s.disk_offset + s.extent > disk->Capacity()) {
      return Status::OutOfRange("stream extent beyond disk capacity");
    }
    // An IO must fit inside the extent for the wrap logic to be sound.
    if (s.bit_rate * config.cycle > s.extent) {
      return Status::InvalidArgument("extent smaller than one IO");
    }
  }
  if (config.probe != nullptr) {
    MEMSTREAM_RETURN_IF_ERROR(config.probe->CheckStreamCount(streams.size()));
  }
  return DirectStreamingServer(disk, std::move(streams), config, trace);
}

DirectStreamingServer::DirectStreamingServer(device::DiskDrive* disk,
                                             std::vector<StreamSpec> streams,
                                             const DirectServerConfig& config,
                                             sim::TraceLog* trace)
    : disk_(disk),
      streams_(std::move(streams)),
      config_(config),
      trace_(trace),
      rng_(config.seed) {
  play_cursor_.assign(streams_.size(), 0);
  session_index_.reserve(streams_.size());
  for (const auto& s : streams_) {
    if (s.direction == StreamDirection::kRead) {
      session_index_.push_back(play_.Add(s.id, s.bit_rate));
    } else {
      const Bytes staging =
          config_.staging_ios * s.bit_rate * config_.cycle;
      session_index_.push_back(record_.Add(s.id, s.bit_rate, staging));
    }
  }

  if (obs::ServerProbe* probe = config_.probe; probe != nullptr) {
    probe->Open("server.direct", streams_.size());
    for (const auto& s : streams_) {
      // Read streams live under the Theorem-1 double-buffer envelope
      // (2*B*T); write streams under their staging allocation.
      const bool read = s.direction == StreamDirection::kRead;
      const Bytes envelope =
          read ? 2.0 * s.bit_rate * config_.cycle
               : config_.staging_ios * s.bit_rate * config_.cycle;
      probe->AddStream(s.id, s.bit_rate, envelope, read);
    }
    probe->AddCycle(obs::CycleDomain::kDisk, "", config_.cycle,
                    /*count_overruns=*/true,
                    "device." + disk_->name() + ".cycle_utilization");
  }
}

std::int64_t DirectStreamingServer::UnderflowsOf(std::size_t i) const {
  return streams_[i].direction == StreamDirection::kRead
             ? play_.underflow_events(session_index_[i])
             : 0;
}

void DirectStreamingServer::RunCycle(Seconds deadline) {
  PROF_SCOPE("server.direct.cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // Build this cycle's batch in arena scratch: one IO per stream at its
  // playback cursor. The arena recycles last cycle's scratch, so the
  // steady-state cycle performs zero heap allocations.
  arena_.Reset();
  const std::size_t n = streams_.size();
  auto* batch = arena_.Alloc<device::IoSpan>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.cycle;
    Bytes cursor = play_cursor_[i];
    // Wrap within the extent so long runs keep streaming.
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;
    batch[i] = device::IoSpan{
        static_cast<std::int64_t>(s.disk_offset + cursor), io_bytes};
  }

  if (trace_ != nullptr) {
    trace_->Append({t0, sim::TraceKind::kCycleStart, disk_->name(), -1, 0,
                    "disk cycle " + std::to_string(report_.cycles)});
  }

  // Service the batch in scheduler order; completions are deposits
  // (reads) or staging drains (writes).
  auto* order = arena_.Alloc<std::size_t>(n);
  auto* scratch = arena_.Alloc<std::size_t>(n);
  device::ScheduleOrderInto(config_.policy, last_head_offset_, batch, n,
                            order, scratch);
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < n; ++oi) {
    const std::size_t idx = order[oi];
    auto st = disk_->Service(batch[idx],
                             config_.deterministic ? nullptr : &rng_);
    if (!st.ok()) continue;  // unreachable: offsets validated in Create
    Seconds service = st.value();
    if (config_.faults != nullptr) {
      service += config_.faults->DiskIoPenalty(t0 + busy);
    }
    busy += service;
    const Seconds done = t0 + busy;
    last_head_offset_ = batch[idx].offset;
    ++report_.ios_completed;
    if (config_.probe != nullptr) {
      config_.probe->IoIssued(idx, batch[idx].bytes);
    }
    const Bytes bytes = batch[idx].bytes;
    const std::size_t si = session_index_[idx];

    if (streams_[idx].direction == StreamDirection::kWrite) {
      if (eager_) {
        // Inline completion: the scheduled event would have fired at
        // `done` with exactly this state (drain times are monotone per
        // stream); effects past the horizon never fire, matching the
        // simulator's drop of events beyond Run(until).
        if (done <= horizon_) {
          record_.Drain(si, done, bytes);
          const Bytes level = record_.LevelAt(si, done);
          if (config_.probe != nullptr) {
            config_.probe->IoCompleted(idx, done, bytes, level);
          }
        }
        continue;
      }
      sim_.ScheduleAt(done, [this, idx, si, bytes, done, service]() {
        record_.Drain(si, done, bytes);
        const Bytes level = record_.LevelAt(si, done);
        if (config_.probe != nullptr) {
          config_.probe->IoCompleted(idx, done, bytes, level);
        }
        if (trace_ != nullptr) {
          trace_->Append({done, sim::TraceKind::kIoCompleted,
                          disk_->name(), record_.id(si), bytes,
                          "recorded", service});
        }
      });
      continue;
    }

    // Double-buffered start: data fetched during cycle c is consumed from
    // the next cycle boundary on, so jitter-freedom only requires that
    // every cycle's batch finishes within T.
    const Seconds boundary = t0 + config_.cycle;
    if (eager_) {
      if (done <= horizon_) {
        play_.Deposit(si, done, bytes);
        const Bytes level = play_.LevelAt(si, done);
        if (config_.probe != nullptr) {
          config_.probe->IoCompleted(idx, done, bytes, level);
        }
        if (!play_.playing(si)) {
          const Seconds start = std::max(done, boundary);
          if (start <= horizon_) play_.StartPlayback(si, start);
        }
      }
      continue;
    }
    sim_.ScheduleAt(done, [this, idx, si, bytes, done, boundary,
                           service]() {
      play_.Deposit(si, done, bytes);
      const Bytes level = play_.LevelAt(si, done);
      if (config_.probe != nullptr) {
        config_.probe->IoCompleted(idx, done, bytes, level);
      }
      if (trace_ != nullptr) {
        trace_->Append({done, sim::TraceKind::kIoCompleted, disk_->name(),
                        play_.id(si), bytes, "", service});
        trace_->Append({done, sim::TraceKind::kBufferLevel, "stream",
                        play_.id(si), level, ""});
      }
      if (!play_.playing(si)) {
        const Seconds start = std::max(done, boundary);
        sim_.ScheduleAt(start, [this, si, start]() {
          if (!play_.playing(si)) play_.StartPlayback(si, start);
        });
      }
    });
  }

  // Fill remaining cycle slack with best-effort traffic (§3.1.2). Each
  // candidate is admitted only if its worst-case service time still fits
  // before the boundary, so the next real-time cycle never slips.
  if (config_.best_effort_io > 0) {
    const Seconds worst_case =
        disk_->MaxAccessLatency() +
        config_.best_effort_io / disk_->parameters().inner_rate;
    while (busy + worst_case < config_.cycle) {
      const auto span = static_cast<std::int64_t>(disk_->Capacity() -
                                                  config_.best_effort_io);
      const device::IoSpan io{rng_.NextInt(0, span),
                              config_.best_effort_io};
      auto st = disk_->Service(io, config_.deterministic ? nullptr : &rng_);
      if (!st.ok()) break;
      busy += st.value();
      last_head_offset_ = io.offset;
      ++report_.best_effort_ios;
      report_.best_effort_bytes += io.bytes;
    }
  }

  report_.total_busy += busy;
  report_.max_cycle_busy = std::max(report_.max_cycle_busy, busy);
  const bool overrun = busy > config_.cycle * (1.0 + 1e-9);
  if (overrun) ++report_.cycle_overruns;
  ++report_.cycles;
  if (config_.probe != nullptr) {
    config_.probe->CycleClosed(
        obs::CycleDomain::kDisk, 0, t0, busy, config_.cycle, overrun,
        [this](std::size_t i) { return UnderflowsOf(i); });
  }
  if (trace_ != nullptr && busy > 0) {
    // Scheduled so the record lands in time order among the IO records.
    const Seconds end = t0 + busy;
    sim_.ScheduleAt(end, [this, end, busy]() {
      trace_->Append({end, sim::TraceKind::kCycleEnd, disk_->name(), -1, 0,
                      "", busy});
    });
  }

  // Next cycle at the nominal boundary (or immediately after an overrun).
  const Seconds next = t0 + std::max(config_.cycle, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next, [this, deadline]() { RunCycle(deadline); });
  }
}

Status DirectStreamingServer::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;
  horizon_ = duration;
  // With a TraceLog attached the per-IO completions stay event-scheduled
  // so trace records interleave in exact time order; otherwise the cycle
  // loop applies them inline (byte-identical results, no queue traffic).
  eager_ = trace_ == nullptr;

  for (std::size_t i = 0; i < record_.size(); ++i) {
    record_.StartRecording(i, 0);
  }
  MEMSTREAM_RETURN_IF_ERROR(
      sim_.Schedule(0, [this, duration]() { RunCycle(duration); }));
  if (config_.faults != nullptr) {
    // No MEMS bank here: device-scoped faults are observed (trace +
    // metrics) but only the disk-spike windows change behaviour.
    MEMSTREAM_RETURN_IF_ERROR(config_.faults->ScheduleIn(sim_, nullptr));
  }
  auto processed = sim_.Run(duration);
  MEMSTREAM_RETURN_IF_ERROR(processed.status());
  if (config_.faults != nullptr) config_.faults->Finalize(duration);

  report_.horizon = duration;
  // The final cycle's batch may finish past the horizon; clamp so the
  // utilization reads as a fraction of the observed window.
  report_.device_utilization =
      duration > 0 ? std::min(report_.total_busy, duration) / duration : 0;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    play_.LevelAt(i, duration);  // accrue trailing underflow time
    report_.qos.AbsorbPlayback(play_.view(i));
    report_.peak_buffer_demand += play_.peak_level(i);
    if (trace_ != nullptr && play_.underflow_events(i) > 0) {
      trace_->Append({duration, sim::TraceKind::kUnderflow, "report",
                      play_.id(i), 0,
                      "events=" + std::to_string(play_.underflow_events(i))});
    }
  }
  for (std::size_t i = 0; i < record_.size(); ++i) {
    record_.LevelAt(i, duration);
    report_.qos.AbsorbRecording(record_.view(i));
    report_.peak_buffer_demand += record_.peak_level(i);
    if (trace_ != nullptr && record_.overflow_events(i) > 0) {
      trace_->Append({duration, sim::TraceKind::kOverflow, "report",
                      record_.id(i), 0,
                      "events=" +
                          std::to_string(record_.overflow_events(i))});
    }
  }
  obs::WarnDroppedTelemetry(trace_, "timecycle server");
  if (config_.probe == nullptr) return Status::OK();
  if (config_.probe->auditor() != nullptr) {
    report_.qos.violations = config_.probe->auditor()->total_violations();
  }
  // Trailing underflows (accrued by the LevelAt calls above) go to the
  // journal, then every stream this server registered departs.
  config_.probe->RunFinished(
      duration, [this](std::size_t i) { return UnderflowsOf(i); });

  if (obs::MetricsRegistry* metrics = config_.probe->metrics();
      metrics != nullptr) {
    metrics->gauge("server.direct.underflow_events")
        ->Set(static_cast<double>(report_.qos.underflow_events));
    metrics->gauge("server.direct.underflow_time_s")
        ->Set(report_.qos.underflow_time);
    metrics->gauge("server.direct.overflow_events")
        ->Set(static_cast<double>(report_.qos.overflow_events));
    metrics->gauge("server.direct.utilization")
        ->Set(report_.device_utilization);
    metrics->gauge("server.direct.peak_dram_bytes")
        ->Set(report_.peak_buffer_demand);
    metrics->gauge("server.direct.max_cycle_busy_ms")
        ->Set(report_.max_cycle_busy / kMillisecond);
    metrics->gauge("prof.server.direct.arena_high_water_bytes")
        ->Set(static_cast<double>(arena_.high_water()));
    obs::ExportDeviceStats(metrics, *disk_, duration);
    obs::ExportSimulatorStats(metrics, sim_);
  }
  return Status::OK();
}

}  // namespace memstream::server
