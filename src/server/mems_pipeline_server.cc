#include "server/mems_pipeline_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "obs/exporters.h"

namespace memstream::server {

Result<MemsPipelineServer> MemsPipelineServer::Create(
    device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
    std::vector<StreamSpec> streams, const MemsPipelineConfig& config,
    sim::TraceLog* trace) {
  if (disk == nullptr) return Status::InvalidArgument("disk is required");
  if (bank.empty()) return Status::InvalidArgument("bank must not be empty");
  if (streams.empty()) return Status::InvalidArgument("no streams");
  if (config.t_disk <= 0 || config.t_mems <= 0) {
    return Status::InvalidArgument("cycle lengths must be > 0");
  }
  if (config.t_mems > config.t_disk) {
    return Status::InvalidArgument("t_mems must not exceed t_disk (Eq. 8)");
  }
  const std::size_t k = bank.size();
  const bool striped =
      config.placement == model::BufferPlacement::kStripedIos;
  // Streams per device under round-robin assignment (striping puts a
  // 1/k share of every stream on every device).
  std::vector<std::size_t> assigned(k, striped ? streams.size() : 0);
  if (!striped) {
    for (std::size_t i = 0; i < streams.size(); ++i) ++assigned[i % k];
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& s = streams[i];
    if (s.bit_rate <= 0) {
      return Status::InvalidArgument("stream bit_rate must be > 0");
    }
    if (s.extent <= 0 || s.disk_offset + s.extent > disk->Capacity()) {
      return Status::OutOfRange("stream extent beyond disk capacity");
    }
    if (s.bit_rate * config.t_disk > s.extent) {
      return Status::InvalidArgument("extent smaller than one disk IO");
    }
    // Executable analogue of condition (7): the stream's slot must hold
    // two disk IOs (one draining, one arriving) plus one DRAM IO.
    const std::size_t home = striped ? 0 : i % k;
    const Bytes slot =
        bank[home].Capacity() / static_cast<double>(assigned[home]);
    const Bytes need = s.bit_rate *
                       (2.0 * config.t_disk + config.t_mems) /
                       (striped ? static_cast<double>(k) : 1.0);
    if (need > slot) {
      return Status::Infeasible(
          "MEMS capacity insufficient for the chosen T_disk (condition 7)");
    }
  }
  if (config.probe != nullptr) {
    MEMSTREAM_RETURN_IF_ERROR(config.probe->CheckStreamCount(streams.size()));
  }
  return MemsPipelineServer(disk, std::move(bank), std::move(streams),
                            config, trace);
}

MemsPipelineServer::MemsPipelineServer(device::DiskDrive* disk,
                                       std::vector<device::MemsDevice> bank,
                                       std::vector<StreamSpec> streams,
                                       const MemsPipelineConfig& config,
                                       sim::TraceLog* trace)
    : disk_(disk),
      bank_(std::move(bank)),
      streams_(std::move(streams)),
      config_(config),
      trace_(trace),
      rng_(config.seed) {
  const std::size_t k = bank_.size();
  pending_.resize(k);
  occupancy_.assign(k, 0);
  device_busy_.assign(k, 0);
  play_cursor_.assign(streams_.size(), 0);
  device_.assign(streams_.size(), 0);
  slot_base_.assign(streams_.size(), 0);
  slot_size_.assign(streams_.size(), 0);
  write_cursor_.assign(streams_.size(), 0);
  read_cursor_.assign(streams_.size(), 0);
  resident_.assign(streams_.size(), 0);
  read_deficit_.assign(streams_.size(), 0);
  first_write_done_.assign(streams_.size(), 0);

  const bool striped =
      config_.placement == model::BufferPlacement::kStripedIos;
  std::vector<std::size_t> assigned(k, striped ? streams_.size() : 0);
  if (!striped) {
    for (std::size_t i = 0; i < streams_.size(); ++i) ++assigned[i % k];
  }
  std::vector<std::size_t> slot_index(k, 0);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    play_.Add(streams_[i].id, streams_[i].bit_rate);
    // Striping: the same 1/k-sized slot exists on every device; device 0
    // stands in for the lock-step group (all writes/reads route through
    // the shared pending queue and the single striped cycle).
    const std::size_t dev = striped ? 0 : i % k;
    device_[i] = dev;
    slot_size_[i] =
        bank_[dev].Capacity() / static_cast<double>(assigned[dev]);
    slot_base_[i] = slot_size_[i] * static_cast<double>(slot_index[dev]++);
  }

  if (obs::ServerProbe* probe = config_.probe; probe != nullptr) {
    probe->Open("server.pipeline", streams_.size());
    // Theorem 2: buffering through MEMS shrinks the per-stream DRAM
    // envelope from 2*B*T_disk to 2*B*T_mems.
    for (const auto& s : streams_) {
      probe->AddStream(s.id, s.bit_rate, 2.0 * s.bit_rate * config_.t_mems);
    }
    for (const auto& dev : bank_) probe->AddDeviceOccupancy(dev.name());
    probe->AddCycle(obs::CycleDomain::kDisk, "disk.", config_.t_disk);
    probe->AddCycle(obs::CycleDomain::kMems, "mems.", config_.t_mems);
    if (obs::MetricsRegistry* metrics = probe->metrics(); metrics != nullptr) {
      starved_metric_ = metrics->counter("server.pipeline.starved_reads");
    }
  }
}

void MemsPipelineServer::RunDiskCycle(Seconds deadline) {
  PROF_SCOPE("server.pipeline.disk_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  // Batch scratch lives in the arena, recycled every cycle (the arena is
  // shared with the MEMS cycles — each cycle body runs to completion
  // before the next event fires, so Reset() here is safe).
  arena_.Reset();
  const std::size_t n = streams_.size();
  auto* batch = arena_.Alloc<device::IoSpan>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = streams_[i];
    const Bytes io_bytes = s.bit_rate * config_.t_disk;
    Bytes cursor = play_cursor_[i];
    if (cursor + io_bytes > s.extent) cursor = 0;
    play_cursor_[i] = cursor + io_bytes;
    batch[i] = device::IoSpan{
        static_cast<std::int64_t>(s.disk_offset + cursor), io_bytes};
  }

  if (trace_ != nullptr) {
    trace_->Append({t0, sim::TraceKind::kCycleStart, disk_->name(), -1, 0,
                    "disk cycle " + std::to_string(report_.disk_cycles)});
  }

  auto* order = arena_.Alloc<std::size_t>(n);
  auto* scratch = arena_.Alloc<std::size_t>(n);
  device::ScheduleOrderInto(config_.disk_policy, last_head_offset_, batch,
                            n, order, scratch);
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < n; ++oi) {
    const std::size_t idx = order[oi];
    auto st = disk_->Service(batch[idx],
                             config_.deterministic ? nullptr : &rng_);
    if (!st.ok()) continue;  // unreachable: validated in Create
    Seconds service = st.value();
    if (config_.faults != nullptr) {
      service += config_.faults->DiskIoPenalty(t0 + busy);
    }
    busy += service;
    last_head_offset_ = batch[idx].offset;
    const Seconds done = t0 + busy;
    const Bytes bytes = batch[idx].bytes;
    if (config_.probe != nullptr) config_.probe->IoIssued(idx, bytes);
    // The push stays event-scheduled even on the eager path: the MEMS
    // cycles must see exactly the writes whose completion time precedes
    // their cycle start, which only the event queue's time ordering
    // guarantees. The capture fits MoveOnlyFunction's inline buffer.
    sim_.ScheduleAt(done, [this, idx, bytes, done, service]() {
      pending_[device_[idx]].push_back(PendingWrite{idx, bytes});
      if (trace_ != nullptr) {
        trace_->Append({done, sim::TraceKind::kIoCompleted, disk_->name(),
                        play_.id(idx), bytes, "-> mems pending",
                        service});
      }
    });
  }

  report_.disk_busy += busy;
  const bool overrun = busy > config_.t_disk * (1.0 + 1e-9);
  if (overrun) ++report_.disk_overruns;
  ++report_.disk_cycles;
  report_.ios_completed += static_cast<std::int64_t>(n);
  if (config_.probe != nullptr) {
    config_.probe->CycleClosed(
        obs::CycleDomain::kDisk, 0, t0, busy, config_.t_disk, overrun,
        [this](std::size_t i) { return play_.underflow_events(i); });
  }
  if (trace_ != nullptr && busy > 0) {
    const Seconds end = t0 + busy;
    sim_.ScheduleAt(end, [this, end, busy]() {
      trace_->Append({end, sim::TraceKind::kCycleEnd, disk_->name(), -1, 0,
                      "", busy});
    });
  }

  const Seconds next = t0 + std::max(config_.t_disk, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next, [this, deadline]() { RunDiskCycle(deadline); });
  }
}

void MemsPipelineServer::RunMemsCycle(std::size_t dev, Seconds deadline) {
  PROF_SCOPE("server.pipeline.mems_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  device::MemsDevice& device = bank_[dev];
  if (trace_ != nullptr) {
    trace_->Append({t0, sim::TraceKind::kCycleStart, device.name(), -1, 0,
                    "mems" + std::to_string(dev) + " cycle"});
  }

  struct Op {
    std::size_t stream;
    Bytes bytes;
    Bytes offset;  ///< device-local
    bool is_write;
  };

  // Drain the disk writes that arrived before this cycle, capped at the
  // steady-state share per cycle (M/k writes, Eq. 8) plus one: without
  // the cap the first MEMS cycle after a disk cycle would absorb the
  // whole burst of N/k writes and overrun.
  std::size_t assigned = 0;
  for (std::size_t i = dev; i < streams_.size(); i += bank_.size()) {
    ++assigned;
  }
  const auto write_cap = static_cast<std::size_t>(
      std::ceil(static_cast<double>(assigned) * config_.t_mems /
                config_.t_disk)) + 1;
  arena_.Reset();
  auto* ops = arena_.Alloc<Op>(write_cap + assigned);
  std::size_t num_ops = 0;
  for (std::size_t i = 0; i < write_cap && !pending_[dev].empty(); ++i) {
    const PendingWrite w = pending_[dev].front();
    pending_[dev].pop_front();
    Bytes cursor = write_cursor_[w.stream];
    if (cursor + w.bytes > slot_size_[w.stream]) {
      cursor = 0;  // wrap within slot
    }
    ops[num_ops++] = Op{w.stream, w.bytes, slot_base_[w.stream] + cursor,
                        true};
    write_cursor_[w.stream] = cursor + w.bytes;
  }

  // One DRAM transfer per assigned stream whose data is resident
  // (snapshot semantics: bytes written this cycle are readable next
  // cycle, matching the analytical model). When a write was drained a
  // cycle late, the stream reads whatever is resident rather than
  // skipping — partial reads keep the playout fed through drain jitter.
  for (std::size_t i = dev; i < streams_.size(); i += bank_.size()) {
    const Bytes read_bytes = streams_[i].bit_rate * config_.t_mems;
    if (!first_write_done_[i]) continue;  // stream not started yet
    if (resident_[i] <= 0) {
      ++report_.starved_reads;
      obs::Increment(starved_metric_);
      read_deficit_[i] += read_bytes;
      continue;
    }
    // Catch-up: repay any shortfall from earlier partial/skipped reads.
    const Bytes wanted = read_bytes + read_deficit_[i];
    const Bytes amount = std::min(wanted, resident_[i]);
    read_deficit_[i] = std::max(0.0, wanted - amount);
    Bytes cursor = read_cursor_[i];
    if (cursor + amount > slot_size_[i]) cursor = 0;
    ops[num_ops++] = Op{i, amount, slot_base_[i] + cursor, false};
    read_cursor_[i] = cursor + amount;
    resident_[i] -= amount;  // claimed by this cycle's schedule
  }

  Seconds busy = 0;
  for (std::size_t oi = 0; oi < num_ops; ++oi) {
    const Op& op = ops[oi];
    auto st = device.Service(
        device::IoSpan{static_cast<std::int64_t>(op.offset), op.bytes},
        nullptr);
    if (!st.ok()) continue;  // unreachable: slots sized in Create
    busy += st.value();
    const Seconds service = st.value();
    const Seconds done = t0 + busy;
    ++report_.ios_completed;
    if (config_.probe != nullptr) config_.probe->IoIssued();
    const std::size_t stream = op.stream;
    const Bytes bytes = op.bytes;
    if (op.is_write) {
      if (eager_) {
        // Inline completion: the event would fire at `done` with this
        // exact state (completions apply in done order; the next cycle
        // of this device starts after every done of this one). Effects
        // past the horizon never fire, like dropped events.
        if (done <= horizon_) {
          resident_[stream] += bytes;
          first_write_done_[stream] = 1;
          occupancy_[dev] += bytes;
          report_.peak_mems_occupancy =
              std::max(report_.peak_mems_occupancy, occupancy_[dev]);
          if (config_.probe != nullptr) {
            config_.probe->DeviceLevel(dev, done, occupancy_[dev]);
          }
        }
        continue;
      }
      sim_.ScheduleAt(done, [this, dev, stream, bytes, done, service]() {
        resident_[stream] += bytes;
        first_write_done_[stream] = 1;
        occupancy_[dev] += bytes;
        report_.peak_mems_occupancy =
            std::max(report_.peak_mems_occupancy, occupancy_[dev]);
        if (config_.probe != nullptr) {
          config_.probe->DeviceLevel(dev, done, occupancy_[dev]);
        }
        if (trace_ != nullptr) {
          trace_->Append({done, sim::TraceKind::kIoCompleted,
                          bank_[dev].name(), play_.id(stream), bytes,
                          "disk->MEMS write", service});
          if (occupancy_[dev] > bank_[dev].Capacity()) {
            trace_->Append({done, sim::TraceKind::kOverflow,
                            bank_[dev].name(), play_.id(stream),
                            occupancy_[dev],
                            "mems occupancy over capacity"});
          }
        }
      });
    } else {
      const Seconds boundary = t0 + config_.t_mems;
      if (eager_) {
        if (done <= horizon_) {
          occupancy_[dev] = std::max(0.0, occupancy_[dev] - bytes);
          if (config_.probe != nullptr) {
            config_.probe->DeviceLevel(dev, done, occupancy_[dev]);
          }
          play_.Deposit(stream, done, bytes);
          const Bytes level = play_.LevelAt(stream, done);
          if (config_.probe != nullptr) {
            config_.probe->IoCompleted(stream, done, bytes, level);
          }
          if (!play_.playing(stream)) {
            const Seconds start = std::max(done, boundary);
            if (start <= horizon_) play_.StartPlayback(stream, start);
          }
        }
        continue;
      }
      sim_.ScheduleAt(done, [this, dev, stream, bytes, done, boundary,
                             service]() {
        occupancy_[dev] = std::max(0.0, occupancy_[dev] - bytes);
        if (config_.probe != nullptr) {
          config_.probe->DeviceLevel(dev, done, occupancy_[dev]);
        }
        play_.Deposit(stream, done, bytes);
        const Bytes level = play_.LevelAt(stream, done);
        if (config_.probe != nullptr) {
          config_.probe->IoCompleted(stream, done, bytes, level);
        }
        if (trace_ != nullptr) {
          trace_->Append({done, sim::TraceKind::kIoCompleted,
                          bank_[dev].name(), play_.id(stream), bytes,
                          "MEMS->DRAM read", service});
          trace_->Append({done, sim::TraceKind::kBufferLevel, "stream",
                          play_.id(stream), level, ""});
        }
        if (!play_.playing(stream)) {
          const Seconds start = std::max(done, boundary);
          sim_.ScheduleAt(start, [this, stream, start]() {
            if (!play_.playing(stream)) play_.StartPlayback(stream, start);
          });
        }
      });
    }
  }

  device_busy_[dev] += busy;
  report_.mems_busy += busy;
  const bool overrun = busy > config_.t_mems * (1.0 + 1e-9);
  if (overrun) ++report_.mems_overruns;
  ++report_.mems_cycles;
  if (config_.probe != nullptr) {
    config_.probe->CycleClosed(obs::CycleDomain::kMems,
                               static_cast<std::int64_t>(dev), t0, busy,
                               config_.t_mems, overrun);
  }
  if (trace_ != nullptr && busy > 0) {
    const Seconds end = t0 + busy;
    const std::string actor = device.name();
    sim_.ScheduleAt(end, [this, end, busy, actor]() {
      trace_->Append({end, sim::TraceKind::kCycleEnd, actor, -1, 0, "",
                      busy});
    });
  }

  const Seconds next = t0 + std::max(config_.t_mems, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next,
                    [this, dev, deadline]() { RunMemsCycle(dev, deadline); });
  }
}

void MemsPipelineServer::RunStripedMemsCycle(Seconds deadline) {
  PROF_SCOPE("server.pipeline.striped_mems_cycle");
  const Seconds t0 = sim_.Now();
  if (t0 >= deadline) return;

  const auto k = static_cast<double>(bank_.size());
  if (trace_ != nullptr) {
    trace_->Append({t0, sim::TraceKind::kCycleStart, "mems-striped", -1, 0,
                    "striped cycle"});
  }

  struct Op {
    std::size_t stream;
    Bytes bytes;          ///< full stream bytes (each device moves /k)
    Bytes device_offset;  ///< local offset, identical on every device
    bool is_write;
  };

  // Drain pending writes (all routed to queue 0), burst-capped as in the
  // round-robin cycle.
  // +2 slack: the disk delivers its N writes as a burst inside ~70% of
  // the disk cycle, so the drain rate must run slightly ahead of the
  // long-run average or late drains starve the tail streams' reads.
  const auto write_cap = static_cast<std::size_t>(
      std::ceil(static_cast<double>(streams_.size()) * config_.t_mems /
                config_.t_disk)) + 2;
  arena_.Reset();
  auto* ops = arena_.Alloc<Op>(write_cap + streams_.size());
  std::size_t num_ops = 0;
  for (std::size_t i = 0; i < write_cap && !pending_[0].empty(); ++i) {
    const PendingWrite w = pending_[0].front();
    pending_[0].pop_front();
    const Bytes local = w.bytes / k;
    Bytes cursor = write_cursor_[w.stream];
    if (cursor + local > slot_size_[w.stream]) cursor = 0;
    ops[num_ops++] = Op{w.stream, w.bytes, slot_base_[w.stream] + cursor,
                        true};
    write_cursor_[w.stream] = cursor + local;
  }

  // One DRAM transfer per stream whose data is resident (partial when a
  // write was drained a cycle late, as in the round-robin cycle).
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Bytes read_bytes = streams_[i].bit_rate * config_.t_mems;
    if (!first_write_done_[i]) continue;
    if (resident_[i] <= 0) {
      ++report_.starved_reads;
      obs::Increment(starved_metric_);
      read_deficit_[i] += read_bytes;
      continue;
    }
    const Bytes wanted = read_bytes + read_deficit_[i];
    const Bytes amount = std::min(wanted, resident_[i]);
    read_deficit_[i] = std::max(0.0, wanted - amount);
    const Bytes local = amount / k;
    Bytes cursor = read_cursor_[i];
    if (cursor + local > slot_size_[i]) cursor = 0;
    ops[num_ops++] = Op{i, amount, slot_base_[i] + cursor, false};
    read_cursor_[i] = cursor + local;
    resident_[i] -= amount;
  }

  // Lock-step service: every device transfers its 1/k share at the same
  // local offset; the elapsed time is the slowest (= common) device.
  Seconds busy = 0;
  for (std::size_t oi = 0; oi < num_ops; ++oi) {
    const Op& op = ops[oi];
    Seconds op_time = 0;
    for (auto& dev : bank_) {
      auto t = dev.Service(
          device::IoSpan{static_cast<std::int64_t>(op.device_offset),
                         op.bytes / k},
          nullptr);
      if (!t.ok()) continue;  // unreachable: slots sized in Create
      op_time = std::max(op_time, t.value());
    }
    busy += op_time;
    ++report_.ios_completed;
    if (config_.probe != nullptr) config_.probe->IoIssued();
    const Seconds done = t0 + busy;
    const std::size_t stream = op.stream;
    const Bytes bytes = op.bytes;
    if (op.is_write) {
      if (eager_) {
        if (done <= horizon_) {
          resident_[stream] += bytes;
          first_write_done_[stream] = 1;
          occupancy_[0] += bytes;
          report_.peak_mems_occupancy =
              std::max(report_.peak_mems_occupancy, occupancy_[0]);
          if (config_.probe != nullptr) {
            config_.probe->DeviceLevel(0, done, occupancy_[0]);
          }
        }
        continue;
      }
      sim_.ScheduleAt(done, [this, stream, bytes, done]() {
        resident_[stream] += bytes;
        first_write_done_[stream] = 1;
        occupancy_[0] += bytes;
        report_.peak_mems_occupancy =
            std::max(report_.peak_mems_occupancy, occupancy_[0]);
        if (config_.probe != nullptr) {
          config_.probe->DeviceLevel(0, done, occupancy_[0]);
        }
      });
    } else {
      const Seconds boundary = t0 + config_.t_mems;
      if (eager_) {
        if (done <= horizon_) {
          occupancy_[0] = std::max(0.0, occupancy_[0] - bytes);
          if (config_.probe != nullptr) {
            config_.probe->DeviceLevel(0, done, occupancy_[0]);
          }
          play_.Deposit(stream, done, bytes);
          const Bytes level = play_.LevelAt(stream, done);
          if (config_.probe != nullptr) {
            config_.probe->IoCompleted(stream, done, bytes, level);
          }
          if (!play_.playing(stream)) {
            const Seconds start = std::max(done, boundary);
            if (start <= horizon_) play_.StartPlayback(stream, start);
          }
        }
        continue;
      }
      sim_.ScheduleAt(done, [this, stream, bytes, done, boundary]() {
        occupancy_[0] = std::max(0.0, occupancy_[0] - bytes);
        if (config_.probe != nullptr) {
          config_.probe->DeviceLevel(0, done, occupancy_[0]);
        }
        play_.Deposit(stream, done, bytes);
        const Bytes level = play_.LevelAt(stream, done);
        if (config_.probe != nullptr) {
          config_.probe->IoCompleted(stream, done, bytes, level);
        }
        if (trace_ != nullptr) {
          trace_->Append({done, sim::TraceKind::kBufferLevel, "stream",
                          play_.id(stream), level, ""});
        }
        if (!play_.playing(stream)) {
          const Seconds start = std::max(done, boundary);
          sim_.ScheduleAt(start, [this, stream, start]() {
            if (!play_.playing(stream)) play_.StartPlayback(stream, start);
          });
        }
      });
    }
  }

  for (auto& b : device_busy_) b += busy;  // all devices move together
  report_.mems_busy += busy * k;
  const bool overrun = busy > config_.t_mems * (1.0 + 1e-9);
  if (overrun) ++report_.mems_overruns;
  ++report_.mems_cycles;
  if (config_.probe != nullptr) {
    config_.probe->CycleClosed(obs::CycleDomain::kMems, -1, t0, busy,
                               config_.t_mems, overrun);
  }
  if (trace_ != nullptr && busy > 0) {
    const Seconds end = t0 + busy;
    sim_.ScheduleAt(end, [this, end, busy]() {
      trace_->Append({end, sim::TraceKind::kCycleEnd, "mems-striped", -1, 0,
                      "", busy});
    });
  }

  const Seconds next = t0 + std::max(config_.t_mems, busy);
  if (next < deadline) {
    sim_.ScheduleAt(next,
                    [this, deadline]() { RunStripedMemsCycle(deadline); });
  }
}

Status MemsPipelineServer::Run(Seconds duration) {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  if (duration <= 0) return Status::InvalidArgument("duration must be > 0");
  ran_ = true;
  horizon_ = duration;
  // With a TraceLog attached the MEMS-op completions stay
  // event-scheduled so trace records interleave in exact time order;
  // otherwise each cycle applies them inline. Faults don't force the
  // slow path here: they act synchronously on the bank devices.
  eager_ = trace_ == nullptr;

  MEMSTREAM_RETURN_IF_ERROR(
      sim_.Schedule(0, [this, duration]() { RunDiskCycle(duration); }));
  // MEMS cycles start after the first disk cycle has delivered data.
  if (config_.placement == model::BufferPlacement::kStripedIos) {
    MEMSTREAM_RETURN_IF_ERROR(sim_.ScheduleAt(
        config_.t_disk,
        [this, duration]() { RunStripedMemsCycle(duration); }));
  } else {
    for (std::size_t d = 0; d < bank_.size(); ++d) {
      MEMSTREAM_RETURN_IF_ERROR(sim_.ScheduleAt(
          config_.t_disk,
          [this, d, duration]() { RunMemsCycle(d, duration); }));
    }
  }
  if (config_.faults != nullptr) {
    // Device faults act directly on the bank: tip loss slows the device,
    // fail makes Service() return Unavailable until the paired repair.
    MEMSTREAM_RETURN_IF_ERROR(config_.faults->ScheduleIn(
        sim_, [this](const fault::FaultEvent& e) {
          if (e.device < 0 ||
              static_cast<std::size_t>(e.device) >= bank_.size()) {
            return;
          }
          auto& dev = bank_[static_cast<std::size_t>(e.device)];
          switch (e.kind) {
            case fault::FaultKind::kMemsTipLoss:
              dev.ApplyTipLoss(e.magnitude);
              break;
            case fault::FaultKind::kMemsDeviceFail:
              dev.SetFailed(true);
              break;
            case fault::FaultKind::kMemsDeviceRepair:
              dev.SetFailed(false);
              break;
            default:
              break;
          }
        }));
  }
  auto processed = sim_.Run(duration);
  MEMSTREAM_RETURN_IF_ERROR(processed.status());
  if (config_.faults != nullptr) config_.faults->Finalize(duration);

  report_.horizon = duration;
  report_.disk_utilization =
      duration > 0 ? std::min(report_.disk_busy, duration) / duration : 0;
  Seconds busy_sum = 0;
  for (Seconds b : device_busy_) busy_sum += b;
  report_.mems_utilization =
      duration > 0
          ? busy_sum / (duration * static_cast<double>(bank_.size()))
          : 0;
  for (std::size_t i = 0; i < play_.size(); ++i) {
    play_.LevelAt(i, duration);
    report_.qos.AbsorbPlayback(play_.view(i));
    report_.peak_dram_demand += play_.peak_level(i);
  }
  obs::WarnDroppedTelemetry(trace_, "mems pipeline server");
  if (config_.probe == nullptr) return Status::OK();
  if (config_.probe->auditor() != nullptr) {
    report_.qos.violations = config_.probe->auditor()->total_violations();
  }
  config_.probe->RunFinished(
      duration, [this](std::size_t i) { return play_.underflow_events(i); });

  if (obs::MetricsRegistry* metrics = config_.probe->metrics();
      metrics != nullptr) {
    metrics->gauge("server.pipeline.underflow_events")
        ->Set(static_cast<double>(report_.qos.underflow_events));
    metrics->gauge("server.pipeline.underflow_time_s")
        ->Set(report_.qos.underflow_time);
    metrics->gauge("server.pipeline.disk.overruns")
        ->Set(static_cast<double>(report_.disk_overruns));
    metrics->gauge("server.pipeline.mems.overruns")
        ->Set(static_cast<double>(report_.mems_overruns));
    metrics->gauge("server.pipeline.disk.utilization")
        ->Set(report_.disk_utilization);
    metrics->gauge("server.pipeline.mems.utilization")
        ->Set(report_.mems_utilization);
    metrics->gauge("server.pipeline.peak_dram_bytes")
        ->Set(report_.peak_dram_demand);
    metrics->gauge("server.pipeline.peak_mems_bytes")
        ->Set(report_.peak_mems_occupancy);
    metrics->gauge("prof.server.pipeline.arena_high_water_bytes")
        ->Set(static_cast<double>(arena_.high_water()));
    obs::ExportDeviceStats(metrics, *disk_, duration);
    for (const auto& dev : bank_) {
      obs::ExportDeviceStats(metrics, dev, duration);
    }
    obs::ExportSimulatorStats(metrics, sim_);
  }
  return Status::OK();
}

}  // namespace memstream::server
