// Earliest-Deadline-First streaming server: the competing class of
// real-time disk scheduling the paper cites (§6: Daigle & Strosnider;
// QPMS/time-cycle vs EDF). Instead of batching one IO per stream per
// cycle, the disk always services the stream whose playout buffer will
// run dry first (non-preemptive EDF on IO deadlines), skipping streams
// whose buffers are already full.
//
// EDF adapts naturally to heterogeneous loads but gives up the batch
// seek optimization: requests are ordered by deadline, not position, so
// the disk pays near-random seeks. The ablation bench quantifies the
// resulting throughput gap against the time-cycle/elevator server —
// the classical reason media servers standardized on cycle-based
// scheduling.

#ifndef MEMSTREAM_SERVER_EDF_SERVER_H_
#define MEMSTREAM_SERVER_EDF_SERVER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "device/disk.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/server_probe.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "server/timecycle_server.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::server {

/// Knobs of the EDF server.
struct EdfServerConfig {
  /// Per-stream IO size in seconds of playback (the buffer holds up to
  /// 2x this, mirroring the double-buffered time-cycle server).
  Seconds io_playback = 1.0;
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional telemetry seam (see obs/server_probe.h). EDF has no
  /// cycles: register the auditor's streams with domain kNone
  /// (occupancy-only audit, bound 2x the IO size) and Seal() before
  /// Run(). Streams self-register at Create under the 2x-IO buffer cap
  /// as their envelope; the "cycle_slack" SLO is fed from deadline
  /// outcomes (a miss burns the budget) and "underflow" per serviced IO.
  /// Not owned.
  obs::ServerProbe* probe = nullptr;
  /// Optional fault injection: disk IOs pay the plan's latency-spike
  /// penalty; device-scoped faults are observed only. Not owned.
  fault::FaultInjector* faults = nullptr;
};

/// EDF statistics (a ServerReport subset plus scheduling counters).
struct EdfServerReport {
  std::int64_t ios_completed = 0;
  std::int64_t deadline_misses = 0;  ///< IOs finishing after their deadline
  Seconds total_busy = 0;
  Seconds idle_time = 0;             ///< disk idle: all buffers full
  Seconds horizon = 0;
  QosCounters qos;                   ///< underflows/violations
  Bytes peak_buffer_demand = 0;
  double device_utilization = 0;
};

/// Non-preemptive EDF server over one disk. Read streams only.
class EdfStreamingServer {
 public:
  static Result<EdfStreamingServer> Create(
      device::DiskDrive* disk, std::vector<StreamSpec> streams,
      const EdfServerConfig& config, sim::TraceLog* trace = nullptr);

  /// Simulates `duration` seconds. May be called once.
  Status Run(Seconds duration);

  const EdfServerReport& report() const { return report_; }
  /// Playout session of the i-th stream (spec order).
  StreamView session(std::size_t i) const { return play_.view(i); }
  std::size_t num_streams() const { return play_.size(); }

 private:
  EdfStreamingServer(device::DiskDrive* disk,
                     std::vector<StreamSpec> streams,
                     const EdfServerConfig& config, sim::TraceLog* trace);

  /// Picks and services the next IO; schedules itself at completion (or
  /// at the next useful instant when every buffer is full).
  void ServiceNext(Seconds deadline_time);

  /// The deadline of stream i: when its buffer runs dry.
  Seconds DeadlineOf(std::size_t i);

  device::DiskDrive* disk_;
  std::vector<StreamSpec> streams_;
  EdfServerConfig config_;
  sim::TraceLog* trace_;
  sim::Simulator sim_;
  Rng rng_;
  PlaybackBatch play_;  ///< SoA session state, index == stream index
  std::vector<Bytes> play_cursor_;
  EdfServerReport report_;
  bool busy_ = false;  ///< an IO is in flight on the disk
  bool ran_ = false;
  obs::Counter* misses_metric_ = nullptr;  ///< null without metrics
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_EDF_SERVER_H_
