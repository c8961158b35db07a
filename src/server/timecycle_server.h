// Direct disk <-> DRAM streaming server under time-cycle IO scheduling
// (the paper's baseline, Theorem 1): in every cycle of length T the disk
// performs exactly one IO of B̄_i * T bytes per stream, reordered by the
// elevator. Read streams deposit into playout sessions (underflow =
// jitter); write streams — the §3.1 extension — drain encoder staging
// buffers (overflow = dropped capture). Executing this schedule in the
// discrete-event simulator validates the analytical sizing: cycles must
// not overrun, no session may underflow, no staging buffer may overflow.

#ifndef MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_
#define MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "device/disk.h"
#include "device/disk_scheduler.h"
#include "fault/fault_injector.h"
#include "obs/server_probe.h"
#include "server/qos_counters.h"
#include "server/stream_batch.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::server {

/// Direction of a stream relative to the disk.
enum class StreamDirection {
  kRead,   ///< playback: disk -> DRAM -> client
  kWrite,  ///< recording: encoder -> DRAM staging -> disk
};

/// A stream to be serviced: sequential access to `extent` bytes placed
/// at `disk_offset` (wrapping, so any simulation horizon works).
struct StreamSpec {
  std::int64_t id = 0;
  BytesPerSecond bit_rate = 0;
  Bytes disk_offset = 0;
  Bytes extent = 0;
  StreamDirection direction = StreamDirection::kRead;
};

/// Knobs of the direct server.
struct DirectServerConfig {
  Seconds cycle = 1.0;  ///< the IO cycle T (from model::IoCycleLength)
  device::SchedulerPolicy policy = device::SchedulerPolicy::kCLook;
  /// Staging allocation per write stream, in IO-sized units; the
  /// double-buffered schedule needs at most ~2 (see the validation
  /// tests), so the default leaves a little slack.
  double staging_ios = 2.2;
  /// §3.1.2: "Spare bandwidth, if available, can be used for
  /// non-real-time traffic." When > 0, cycle slack left after the
  /// real-time batch is filled with best-effort IOs of this size at
  /// random positions, admitted only while a worst-case-latency IO still
  /// fits before the cycle boundary (so real-time streams are never put
  /// at risk).
  Bytes best_effort_io = 0;
  /// Deterministic mode charges the expected rotational delay; otherwise
  /// the delay is sampled per IO from `seed`.
  bool deterministic = true;
  std::uint64_t seed = 42;
  /// Optional telemetry seam: metrics, QoS auditor (register the streams
  /// in spec order, read streams domain kDisk, and Seal() before Run()),
  /// timelines, journal and SLOs. Streams self-register at Create (read
  /// streams under the Theorem-1 2*B*T envelope, write streams under
  /// their staging allocation) and the cycle callbacks feed it — no new
  /// sim events, so event order and bench output are unchanged. Null
  /// costs one pointer test per hook site. Not owned; must outlive the
  /// server.
  obs::ServerProbe* probe = nullptr;
  /// Optional fault injection: disk IOs pay the plan's latency-spike
  /// penalty; device-scoped faults are observed only (no MEMS bank).
  /// Not owned; must outlive the server.
  fault::FaultInjector* faults = nullptr;
};

/// Post-run statistics common to all the simulated servers.
struct ServerReport {
  std::int64_t cycles = 0;
  std::int64_t ios_completed = 0;
  std::int64_t cycle_overruns = 0;   ///< cycles whose busy time exceeded T
  Seconds max_cycle_busy = 0;
  Seconds total_busy = 0;            ///< device busy time (for utilization)
  Seconds horizon = 0;               ///< simulated duration
  QosCounters qos;                   ///< underflows/overflows/violations
  Bytes peak_buffer_demand = 0;      ///< sum of per-session peak levels
  double device_utilization = 0;     ///< total_busy / horizon
  std::int64_t best_effort_ios = 0;  ///< slack-filling IOs serviced
  Bytes best_effort_bytes = 0;
};

/// The baseline server. Construction validates the stream set against the
/// disk capacity; Run() executes the schedule and fills the report.
class DirectStreamingServer {
 public:
  static Result<DirectStreamingServer> Create(
      device::DiskDrive* disk, std::vector<StreamSpec> streams,
      const DirectServerConfig& config, sim::TraceLog* trace = nullptr);

  /// Simulates `duration` seconds of service. May be called once.
  Status Run(Seconds duration);

  const ServerReport& report() const { return report_; }

  /// Playout session of the i-th *read* stream (in spec order).
  StreamView session(std::size_t i) const { return play_.view(i); }
  std::vector<StreamView> play_sessions() const { return play_.views(); }
  std::vector<RecordingView> record_sessions() const {
    return record_.views();
  }
  std::size_t num_streams() const { return streams_.size(); }

 private:
  DirectStreamingServer(device::DiskDrive* disk,
                        std::vector<StreamSpec> streams,
                        const DirectServerConfig& config,
                        sim::TraceLog* trace);

  void RunCycle(Seconds deadline);
  /// Stream `i`'s cumulative underflow events (0 for a write stream).
  std::int64_t UnderflowsOf(std::size_t i) const;

  device::DiskDrive* disk_;
  std::vector<StreamSpec> streams_;
  DirectServerConfig config_;
  sim::TraceLog* trace_;
  sim::Simulator sim_;
  Rng rng_;
  PlaybackBatch play_;     ///< SoA state of the read streams
  RecordingBatch record_;  ///< SoA state of the write streams
  /// Per stream: index into play_ or record_.
  std::vector<std::size_t> session_index_;
  std::vector<Bytes> play_cursor_;  ///< per-stream offset within extent
  std::int64_t last_head_offset_ = 0;
  CycleArena arena_;        ///< per-cycle scratch (batch + order)
  Seconds horizon_ = 0;     ///< Run() duration; bounds eager effects
  /// Fast path: with no TraceLog attached, IO completion effects are
  /// applied inline in the cycle loop (in the same order the scheduled
  /// events would have fired) instead of through the event queue.
  bool eager_ = false;
  ServerReport report_;
  bool ran_ = false;
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_TIMECYCLE_SERVER_H_
