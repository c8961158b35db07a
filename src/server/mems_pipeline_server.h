// Disk -> MEMS -> DRAM pipeline server (§3.1, Figs. 4 and 5): every byte
// read from the disk is first written to a bank of k MEMS devices and
// later read into DRAM, with two nested time cycles:
//
//  - the disk cycle (length T_disk): one disk IO of B̄ * T_disk per stream,
//    elevator-ordered; each completion is queued as a pending write on the
//    stream's MEMS device (streams are assigned round-robin, stream i ->
//    device i mod k, preserving large disk-side IOs per §3.1.2);
//  - the per-device MEMS cycle (length T_mems = M/N * T_disk): the device
//    drains its pending disk writes and performs one DRAM transfer of
//    B̄ * T_mems for each assigned stream whose data is resident.
//
// Each device lays its assigned streams out in contiguous slots and all
// transfers are serviced through the kinematic sled model, so the actual
// positioning costs are at most the worst-case latency the analytical
// sizing (Theorem 2) charges — the simulation validates that sizing.

#ifndef MEMSTREAM_SERVER_MEMS_PIPELINE_SERVER_H_
#define MEMSTREAM_SERVER_MEMS_PIPELINE_SERVER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "device/disk.h"
#include "device/disk_scheduler.h"
#include "device/mems_device.h"
#include "fault/fault_injector.h"
#include "model/mems_buffer.h"
#include "obs/metrics.h"
#include "obs/server_probe.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "server/timecycle_server.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::server {

/// Knobs of the pipeline server. Obtain t_disk / t_mems from
/// model::SolveMemsBuffer (use t_mems_snapped) with the matching
/// placement.
struct MemsPipelineConfig {
  Seconds t_disk = 1.0;
  Seconds t_mems = 0.1;
  device::SchedulerPolicy disk_policy = device::SchedulerPolicy::kCLook;
  /// §3.1.2 placement: round-robin (the paper's choice) routes each disk
  /// IO whole to one device; striped splits every IO across all k
  /// devices in lock-step (implemented so the rejected design can be
  /// executed and compared, not just modeled).
  model::BufferPlacement placement =
      model::BufferPlacement::kRoundRobinStreams;
  bool deterministic = true;  ///< expected rotational delay on the disk
  std::uint64_t seed = 42;
  /// Optional telemetry seam (see obs/server_probe.h). Register the
  /// auditor's streams in spec order, domain kDisk — MEMS-side reads are
  /// legally partial through drain jitter, so only the disk cycle's
  /// one-IO-per-stream invariant is byte-checked — and Seal() before
  /// Run(). Streams self-register at Create under the Theorem-2 DRAM
  /// envelope (2 * B * T_mems); deposits are the MEMS->DRAM reads. Not
  /// owned.
  obs::ServerProbe* probe = nullptr;
  /// Optional fault injection: disk IOs pay the latency-spike penalty,
  /// MEMS tip loss slows the affected device, and a failed device stops
  /// servicing until its repair (its streams starve — the pipeline has
  /// no degradation manager; that is the cache server's job). Not owned.
  fault::FaultInjector* faults = nullptr;
};

/// Post-run statistics of the pipeline.
struct MemsPipelineReport {
  std::int64_t disk_cycles = 0;
  std::int64_t disk_overruns = 0;
  Seconds disk_busy = 0;
  std::int64_t mems_cycles = 0;   ///< summed across devices
  std::int64_t mems_overruns = 0;
  Seconds mems_busy = 0;          ///< summed across devices
  std::int64_t ios_completed = 0;
  std::int64_t starved_reads = 0;  ///< DRAM reads skipped: data not resident
  QosCounters qos;                 ///< underflows/violations
  Bytes peak_mems_occupancy = 0;  ///< max per-device resident bytes
  Bytes peak_dram_demand = 0;     ///< sum of per-session peaks
  Seconds horizon = 0;
  double disk_utilization = 0;
  double mems_utilization = 0;    ///< mean across devices
};

/// The pipeline server. Owns the MEMS bank; the disk is borrowed.
class MemsPipelineServer {
 public:
  /// Validates capacity: each device must fit, per assigned stream, two
  /// disk IOs plus one DRAM IO of buffered data (the executable analogue
  /// of condition (7)).
  static Result<MemsPipelineServer> Create(
      device::DiskDrive* disk, std::vector<device::MemsDevice> bank,
      std::vector<StreamSpec> streams, const MemsPipelineConfig& config,
      sim::TraceLog* trace = nullptr);

  /// Simulates `duration` seconds. May be called once.
  Status Run(Seconds duration);

  const MemsPipelineReport& report() const { return report_; }
  /// Playout session of the i-th stream (spec order).
  StreamView session(std::size_t i) const { return play_.view(i); }
  std::size_t num_streams() const { return play_.size(); }
  std::size_t bank_size() const { return bank_.size(); }

 private:
  MemsPipelineServer(device::DiskDrive* disk,
                     std::vector<device::MemsDevice> bank,
                     std::vector<StreamSpec> streams,
                     const MemsPipelineConfig& config, sim::TraceLog* trace);

  void RunDiskCycle(Seconds deadline);
  void RunMemsCycle(std::size_t dev, Seconds deadline);
  /// Striped placement: one lock-step cycle drives all k devices.
  void RunStripedMemsCycle(Seconds deadline);

  struct PendingWrite {
    std::size_t stream;
    Bytes bytes;
  };

  device::DiskDrive* disk_;
  std::vector<device::MemsDevice> bank_;
  std::vector<StreamSpec> streams_;
  MemsPipelineConfig config_;
  sim::TraceLog* trace_;
  sim::Simulator sim_;
  Rng rng_;
  PlaybackBatch play_;  ///< SoA session state, index == stream index
  // Per-stream pipeline state, structure-of-arrays (hot cycle loops walk
  // one array at a time).
  std::vector<std::size_t> device_;       ///< assigned MEMS device
  std::vector<Bytes> slot_base_;          ///< slot start on the device
  std::vector<Bytes> slot_size_;
  std::vector<Bytes> write_cursor_;       ///< within the slot
  std::vector<Bytes> read_cursor_;
  std::vector<Bytes> resident_;           ///< on MEMS, written and unread
  std::vector<Bytes> read_deficit_;       ///< shortfall from partial reads,
                                          ///< repaid by catch-up reads
  std::vector<std::uint8_t> first_write_done_;
  std::vector<std::deque<PendingWrite>> pending_;   ///< per device
  std::vector<Bytes> occupancy_;                    ///< per device
  std::vector<Seconds> device_busy_;                ///< per device
  std::vector<Bytes> play_cursor_;                  ///< disk-side cursor
  std::int64_t last_head_offset_ = 0;
  CycleArena arena_;     ///< per-cycle scratch (batch, order, ops)
  Seconds horizon_ = 0;  ///< Run() duration; bounds eager effects
  /// Fast path: with no TraceLog attached, MEMS-op completion effects are
  /// applied inline in the cycle loop (same order the scheduled events
  /// would have fired). Disk->pending pushes stay event-scheduled in both
  /// modes so the MEMS cycles' view of the pending queues is identical.
  bool eager_ = false;
  MemsPipelineReport report_;
  bool ran_ = false;
  obs::Counter* starved_metric_ = nullptr;  ///< null without metrics
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_MEMS_PIPELINE_SERVER_H_
