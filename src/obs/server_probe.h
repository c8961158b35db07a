// Server telemetry probe: the one seam through which a simulated server
// feeds every observability sink — the metrics registry, the online QoS
// auditor, the timeline recorder, the stream journal and the SLO monitor.
//
// A server holds one ServerProbe* (null = no telemetry, one pointer test
// per hook site) and calls it at four points:
//  - stream registered: AddStream(), from the server's constructor, in
//    spec order (the auditor's stream index);
//  - IO completed: IoCompleted() with the deposit's time, bytes and the
//    DRAM level it left;
//  - cycle closed: CycleClosed() with the domain, start, busy time,
//    overrun flag and, where the server scans for new underflows, the
//    playback state's cumulative underflow counts;
//  - run finished: RunFinished() journals trailing underflows and departs
//    every stream the server registered.
// The cache server's degradation verdicts (shed, re-admit, degrade, domain
// moves, re-sized bounds) go through the probe too.
//
// The probe owns all per-stream telemetry state: journal slots,
// underflow-seen counts, occupancy gauges and timeline series, plus the
// SLO handles and the cycle counters and slack histograms under the
// server's metric prefix. Per-stream state is allocated at registration
// and only for the sinks attached; the hooks allocate nothing. One probe
// serves one server.

#ifndef MEMSTREAM_OBS_SERVER_PROBE_H_
#define MEMSTREAM_OBS_SERVER_PROBE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/qos_auditor.h"
#include "obs/slo.h"
#include "obs/stream_journal.h"
#include "obs/timeline.h"

namespace memstream::obs {

/// The sinks one server run feeds. Any may be null; none is owned.
struct ServerSinks {
  MetricsRegistry* metrics = nullptr;
  QosAuditor* auditor = nullptr;
  TimelineRecorder* timelines = nullptr;
  StreamJournal* journal = nullptr;
  SloMonitor* slo = nullptr;
};

/// A server's cycle domains: the disk-side cycle and the MEMS-side one.
enum class CycleDomain : std::uint8_t { kDisk, kMems };

class ServerProbe {
 public:
  explicit ServerProbe(const ServerSinks& sinks) : sinks_(sinks) {}
  ServerProbe(const ServerProbe&) = delete;
  ServerProbe& operator=(const ServerProbe&) = delete;

  MetricsRegistry* metrics() const { return sinks_.metrics; }
  QosAuditor* auditor() const { return sinks_.auditor; }

  // --- registration (cold path) ---

  /// InvalidArgument unless the auditor, when attached, registered
  /// exactly `num_streams` streams.
  Status CheckStreamCount(std::size_t num_streams) const;

  /// Names the server's metrics (`prefix` + ".ios", ...), reserves room
  /// for `num_streams` and registers the standard underflow and
  /// cycle-slack SLOs. `level_gauges` = false keeps the per-stream
  /// occupancy out of the metrics (timelines still get it).
  void Open(const std::string& prefix, std::size_t num_streams,
            bool level_gauges = true);

  /// Declares a cycle domain: counter `<prefix>.<stem>cycles` and the
  /// slack histogram `<prefix>.<stem>cycle_slack_ms` over ±cycle (stem ""
  /// or "disk." / "mems."), optionally `<stem>cycle_overruns` and a
  /// timeline series of busy/cycle per cycle.
  void AddCycle(CycleDomain domain, const std::string& stem, Seconds cycle,
                bool count_overruns = false,
                const std::string& utilization_series = "");

  /// Also feeds the "availability" SLO at every scanned cycle close.
  void TrackAvailability();

  /// Registers the next stream (spec order). A playback stream's level
  /// series and gauge are `stream.<id>.dram_bytes`, a recording stream's
  /// `stream.<id>.staging_bytes`; `envelope` is its journal DRAM bound.
  void AddStream(std::int64_t id, BytesPerSecond bit_rate, Bytes envelope,
                 bool playback = true);

  /// Registers the next device's occupancy gauge and series,
  /// `device.<name>.occupancy_bytes`.
  void AddDeviceOccupancy(const std::string& name);

  // --- hot path (allocation-free) ---

  /// An IO for stream `i` was issued in the current cycle of its domain
  /// (audited one-IO-per-cycle check).
  void IoIssued(std::size_t i, Bytes bytes) {
    if (ios_ != nullptr) ios_->Increment();
    if (sinks_.auditor != nullptr) sinks_.auditor->RecordIo(i, bytes);
  }
  /// An unaudited IO was issued (counted only).
  void IoIssued() {
    if (ios_ != nullptr) ios_->Increment();
  }

  /// An IO of `bytes` landed for stream `i` at `t`, leaving `level`.
  void IoCompleted(std::size_t i, Seconds t, Bytes bytes, Bytes level) {
    if (!level_gauge_.empty()) level_gauge_[i]->Update(t, level);
    if (!level_series_.empty()) level_series_[i]->Record(t, level);
    if (sinks_.auditor != nullptr) sinks_.auditor->RecordDramLevel(i, t, level);
    if (!jslot_.empty()) sinks_.journal->RecordIo(jslot_[i], t, bytes, level);
  }

  /// Device `dev`'s occupancy changed to `level` at `t`.
  void DeviceLevel(std::size_t dev, Seconds t, Bytes level) {
    if (!device_gauge_.empty()) device_gauge_[dev]->Update(t, level);
    if (!device_series_.empty()) device_series_[dev]->Record(t, level);
  }

  /// A cycle of `domain` that began at `t0` finished its batch in `busy`
  /// against a cycle length of `cycle`. `device` names the MEMS device of
  /// a per-device cycle (-1 = the lock-step bank); ignored for kDisk.
  void CycleClosed(CycleDomain domain, std::int64_t device, Seconds t0,
                   Seconds busy, Seconds cycle, bool overrun) {
    const Cycle& c = cycles_[static_cast<std::size_t>(domain)];
    if (overrun && c.overruns != nullptr) c.overruns->Increment();
    if (c.count != nullptr) c.count->Increment();
    if (c.slack_ms != nullptr) {
      c.slack_ms->Observe((cycle - busy) / kMillisecond);
    }
    if (QosAuditor* a = sinks_.auditor; a != nullptr) {
      if (domain == CycleDomain::kDisk) {
        a->EndDiskCycle(t0, busy);
      } else {
        a->EndMemsCycle(device, t0, busy);
      }
    }
    SlackOutcome(t0 + busy, overrun);
    if (c.utilization != nullptr) {
      c.utilization->Record(t0 + cycle, busy / cycle);
    }
  }

  /// CycleClosed plus the underflow delta scan: `underflows_of(i)` is
  /// stream i's cumulative underflow count (0 for recording streams).
  /// New events are journaled at t0 + busy and feed the underflow SLO;
  /// with availability tracked, `shed` streams burn that budget.
  template <class UnderflowsOf>
  void CycleClosed(CycleDomain domain, std::int64_t device, Seconds t0,
                   Seconds busy, Seconds cycle, bool overrun,
                   const UnderflowsOf& underflows_of, std::int64_t shed = 0) {
    CycleClosed(domain, device, t0, busy, cycle, overrun);
    if (uf_seen_.empty()) return;
    const Seconds now = t0 + busy;
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < uf_seen_.size(); ++i) {
      const std::int64_t delta = underflows_of(i) - uf_seen_[i];
      if (delta > 0) {
        uf_seen_[i] += delta;
        ++bad;
        if (!jslot_.empty()) {
          sinks_.journal->RecordUnderflows(jslot_[i], now, delta);
        }
      }
    }
    if (slo_underflow_ != nullptr && playback_ > 0) {
      slo_underflow_->Record(now, playback_ - bad, bad);
    }
    if (slo_availability_ != nullptr && playback_ > 0) {
      slo_availability_->Record(now, playback_ - shed, shed);
    }
  }

  /// One cycle-slack outcome outside any cycle (EDF: an IO met or
  /// missed its deadline).
  void SlackOutcome(Seconds t, bool missed) {
    if (slo_slack_ != nullptr) {
      slo_slack_->Record(t, missed ? 0 : 1, missed ? 1 : 0);
    }
  }

  /// Per-IO underflow check of stream `i` (EDF): journals new events and
  /// records one good or bad underflow-SLO event.
  void StreamUnderflows(std::size_t i, Seconds t, std::int64_t cumulative) {
    if (uf_seen_.empty()) return;
    const std::int64_t delta = cumulative - uf_seen_[i];
    if (delta > 0) {
      uf_seen_[i] += delta;
      if (!jslot_.empty()) {
        sinks_.journal->RecordUnderflows(jslot_[i], t, delta);
      }
    }
    if (slo_underflow_ != nullptr) {
      slo_underflow_->Record(t, delta > 0 ? 0 : 1, delta > 0 ? 1 : 0);
    }
  }

  // --- degradation verdicts (cache server re-plans) ---

  void Shed(std::size_t i, Seconds t);
  void Readmitted(std::size_t i, Seconds t);
  /// Still served, off the healthy plan: 0 = reshaped cycle, 1 = disk
  /// fallback.
  void Degraded(std::size_t i, Seconds t, double detail);
  /// Stream `i` moved to another audited cycle domain.
  void Moved(std::size_t i, QosDomain domain, std::int64_t device = 0);
  /// A re-plan changed the audited cycle length of `domain`.
  void CycleChanged(CycleDomain domain, Seconds cycle);
  /// A re-plan re-sized stream `i`'s audited DRAM bound.
  void DramBound(std::size_t i, Bytes bound);
  /// Re-derives the audited total DRAM budget as the sum of the
  /// per-stream bounds now installed.
  void DramTotalFromStreams();

  // --- run end ---

  /// Journals each stream's underflows since the last scan at `t`, then
  /// departs every registered stream (per server, not a journal-wide
  /// Finalize: a farm sharing one journal must not depart other disks'
  /// streams).
  template <class UnderflowsOf>
  void RunFinished(Seconds t, const UnderflowsOf& underflows_of) {
    if (jslot_.empty()) return;
    for (std::size_t i = 0; i < jslot_.size(); ++i) {
      const std::int64_t delta = underflows_of(i) - uf_seen_[i];
      uf_seen_[i] += delta;
      if (delta > 0) sinks_.journal->RecordUnderflows(jslot_[i], t, delta);
      sinks_.journal->MarkDeparted(jslot_[i], t);
    }
  }

 private:
  struct Cycle {
    Counter* count = nullptr;
    Counter* overruns = nullptr;
    HistogramMetric* slack_ms = nullptr;
    TimelineSeries* utilization = nullptr;
  };

  ServerSinks sinks_;
  std::string prefix_;
  bool level_gauges_ = true;
  Counter* ios_ = nullptr;
  std::array<Cycle, 2> cycles_{};
  Slo* slo_underflow_ = nullptr;
  Slo* slo_slack_ = nullptr;
  Slo* slo_availability_ = nullptr;
  std::int64_t playback_ = 0;  ///< playback streams registered
  // Per stream, spec order; each is empty unless its sink is attached.
  std::vector<TimeWeightedGauge*> level_gauge_;
  std::vector<TimelineSeries*> level_series_;
  std::vector<std::size_t> jslot_;
  std::vector<std::int64_t> uf_seen_;  ///< journal or SLO attached
  // Per device.
  std::vector<TimeWeightedGauge*> device_gauge_;
  std::vector<TimelineSeries*> device_series_;
};

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_SERVER_PROBE_H_
