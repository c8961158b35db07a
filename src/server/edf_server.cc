#include "server/edf_server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "obs/exporters.h"

namespace memstream::server {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<EdfStreamingServer> EdfStreamingServer::Create(
    device::DiskDrive* disk, std::vector<StreamSpec> streams,
    const EdfServerConfig& config, sim::TraceLog* trace) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.io_playback <= 0) {
    return Status::InvalidArgument("io_playback must be > 0");
  }
  for (const auto& s : streams) {
    if (s.direction != StreamDirection::kRead) {
      return Status::InvalidArgument("EDF server services read streams");
    }
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0 || s.disk_offset + s.extent > disk->Capacity()) {
      return Status::OutOfRange("stream extent beyond disk capacity");
    }
    if (s.bit_rate * config.io_playback > s.extent) {
      return Status::InvalidArgument("extent smaller than one IO");
    }
  }
  if (config.probe != nullptr) {
    MEMSTREAM_RETURN_IF_ERROR(config.probe->CheckStreamCount(streams.size()));
  }
  return EdfStreamingServer(disk, std::move(streams), config, trace);
}

EdfStreamingServer::EdfStreamingServer(device::DiskDrive* disk,
                                       std::vector<StreamSpec> streams,
                                       const EdfServerConfig& config,
                                       sim::TraceLog* trace)
    : disk_(disk),
      streams_(std::move(streams)),
      config_(config),
      trace_(trace),
      rng_(config.seed) {
  play_cursor_.assign(streams_.size(), 0);
  for (const auto& s : streams_) play_.Add(s.id, s.bit_rate);

  if (obs::ServerProbe* probe = config_.probe; probe != nullptr) {
    probe->Open("server.edf", streams_.size(), /*level_gauges=*/false);
    for (const auto& s : streams_) {
      probe->AddStream(s.id, s.bit_rate,
                       2.0 * s.bit_rate * config_.io_playback);
    }
    if (obs::MetricsRegistry* metrics = probe->metrics(); metrics != nullptr) {
      misses_metric_ = metrics->counter("server.edf.deadline_misses");
    }
  }
}

Seconds EdfStreamingServer::DeadlineOf(std::size_t i) {
  if (!play_.playing(i)) {
    // Bootstrap: unstarted streams are the most urgent, oldest first.
    return -1.0 - 1.0 / (1.0 + static_cast<double>(i));
  }
  return sim_.Now() + play_.LevelAt(i, sim_.Now()) / play_.bit_rate(i);
}

void EdfStreamingServer::ServiceNext(Seconds deadline_time) {
  PROF_SCOPE("server.edf.service");
  const Seconds now = sim_.Now();
  if (now >= deadline_time) return;
  if (busy_) return;  // an IO is in flight; its completion re-enters

  // Pick the eligible stream (buffer has room for one more IO) with the
  // earliest deadline; remember the earliest time an ineligible stream
  // frees room, in case everyone is full.
  std::size_t chosen = streams_.size();
  Seconds best_deadline = kInf;
  Seconds next_eligible = kInf;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Bytes io = streams_[i].bit_rate * config_.io_playback;
    const Bytes cap = 2 * io;
    const Bytes level = play_.LevelAt(i, now);
    if (level + io <= cap * (1 + 1e-9)) {
      const Seconds deadline = DeadlineOf(i);
      if (deadline < best_deadline) {
        best_deadline = deadline;
        chosen = i;
      }
    } else if (play_.playing(i)) {
      next_eligible = std::min(
          next_eligible, now + (level + io - cap) / streams_[i].bit_rate);
    }
  }

  if (chosen == streams_.size()) {
    // Every buffer is full: idle until one drains enough. Streams that
    // have not started playing yet re-enter the loop from their
    // playback-start event instead.
    if (next_eligible == kInf) return;
    const Seconds wake = std::min(next_eligible, deadline_time);
    report_.idle_time += wake - now;
    sim_.ScheduleAt(wake,
                    [this, deadline_time]() { ServiceNext(deadline_time); });
    return;
  }

  const auto& s = streams_[chosen];
  const Bytes io_bytes = s.bit_rate * config_.io_playback;
  Bytes cursor = play_cursor_[chosen];
  if (cursor + io_bytes > s.extent) cursor = 0;
  play_cursor_[chosen] = cursor + io_bytes;

  auto service = disk_->Service(
      device::IoSpan{static_cast<std::int64_t>(s.disk_offset + cursor),
                     io_bytes},
      config_.deterministic ? nullptr : &rng_);
  if (!service.ok()) return;  // unreachable: validated in Create
  busy_ = true;
  Seconds service_time = service.value();
  if (config_.faults != nullptr) {
    service_time += config_.faults->DiskIoPenalty(now);
  }
  const Seconds done = now + service_time;
  report_.total_busy += service_time;
  ++report_.ios_completed;
  const bool missed = play_.playing(chosen) && done > best_deadline;
  if (missed) ++report_.deadline_misses;
  if (config_.probe != nullptr) {
    config_.probe->IoIssued(chosen, io_bytes);
    if (missed) obs::Increment(misses_metric_);
    config_.probe->SlackOutcome(done, missed);
  }

  // The capture fits MoveOnlyFunction's inline buffer; the probe's
  // stream index and playback delay are reachable via this/chosen, so
  // the per-IO event never heap-allocates.
  sim_.ScheduleAt(done, [this, chosen, io_bytes, done, deadline_time]() {
    play_.Deposit(chosen, done, io_bytes);
    const Bytes level = play_.LevelAt(chosen, done);
    if (config_.probe != nullptr) {
      config_.probe->IoCompleted(chosen, done, io_bytes, level);
      config_.probe->StreamUnderflows(chosen, done,
                                      play_.underflow_events(chosen));
    }
    if (trace_ != nullptr) {
      trace_->Append({done, sim::TraceKind::kIoCompleted, disk_->name(),
                      play_.id(chosen), io_bytes, "edf"});
    }
    if (!play_.playing(chosen)) {
      // Double-buffered start, mirroring the time-cycle server. The
      // start event also re-enters the service loop: a full pipeline
      // may have gone idle waiting for consumption to begin.
      const Seconds start = done + config_.io_playback;
      sim_.ScheduleAt(start, [this, chosen, start, deadline_time]() {
        if (!play_.playing(chosen)) play_.StartPlayback(chosen, start);
        ServiceNext(deadline_time);
      });
    }
    busy_ = false;
    ServiceNext(deadline_time);
  });
}

Status EdfStreamingServer::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;

  MEMSTREAM_RETURN_IF_ERROR(
      sim_.Schedule(0, [this, duration]() { ServiceNext(duration); }));
  if (config_.faults != nullptr) {
    MEMSTREAM_RETURN_IF_ERROR(config_.faults->ScheduleIn(sim_, nullptr));
  }
  auto processed = sim_.Run(duration);
  MEMSTREAM_RETURN_IF_ERROR(processed.status());
  if (config_.faults != nullptr) config_.faults->Finalize(duration);

  report_.horizon = duration;
  report_.device_utilization =
      duration > 0 ? std::min(report_.total_busy, duration) / duration : 0;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    play_.LevelAt(i, duration);
    report_.qos.AbsorbPlayback(play_.view(i));
    report_.peak_buffer_demand += play_.peak_level(i);
  }
  obs::WarnDroppedTelemetry(trace_, "edf server");
  if (config_.probe == nullptr) return Status::OK();
  if (config_.probe->auditor() != nullptr) {
    report_.qos.violations = config_.probe->auditor()->total_violations();
  }
  config_.probe->RunFinished(
      duration, [this](std::size_t i) { return play_.underflow_events(i); });
  if (obs::MetricsRegistry* metrics = config_.probe->metrics();
      metrics != nullptr) {
    metrics->gauge("server.edf.underflow_events")
        ->Set(static_cast<double>(report_.qos.underflow_events));
    metrics->gauge("server.edf.utilization")->Set(report_.device_utilization);
    metrics->gauge("server.edf.idle_time_s")->Set(report_.idle_time);
  }
  return Status::OK();
}

}  // namespace memstream::server
