#include "obs/qos_auditor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/profiler.h"

namespace memstream::obs {

namespace {

/// Index of the next record appended to `log` in the global (including
/// evicted) sequence.
std::int64_t NextTraceIndex(const sim::TraceLog& log) {
  return log.dropped_records() +
         static_cast<std::int64_t>(log.records().size());
}

}  // namespace

const char* QosInvariantName(QosInvariant invariant) {
  switch (invariant) {
    case QosInvariant::kDiskCycleOverrun:
      return "disk_cycle_overrun";
    case QosInvariant::kMemsCycleOverrun:
      return "mems_cycle_overrun";
    case QosInvariant::kIoCount:
      return "io_count";
    case QosInvariant::kIoBytes:
      return "io_bytes";
    case QosInvariant::kDramBound:
      return "dram_bound";
    case QosInvariant::kDramTotalBound:
      return "dram_total_bound";
    case QosInvariant::kMemsStorageBound:
      return "mems_storage_bound";
    case QosInvariant::kCycleNesting:
      return "cycle_nesting";
  }
  return "?";
}

std::string QosViolation::ToString() const {
  std::ostringstream out;
  out << QosInvariantName(invariant);
  if (stream_id >= 0) out << ": stream " << stream_id;
  if (cycle_index >= 0) out << " cycle " << cycle_index;
  out << " t=" << time << "s: observed " << observed << " vs expected "
      << expected;
  if (!detail.empty()) out << " (" << detail << ")";
  return out.str();
}

QosAuditor::QosAuditor(const QosAuditorConfig& config) : config_(config) {
  if (config_.tolerance < 0) config_.tolerance = 0;
  violations_.reserve(config_.max_violations);
  if (MetricsRegistry* metrics = config_.metrics; metrics != nullptr) {
    if (config_.disk_cycle > 0) {
      const double ms = config_.disk_cycle / kMillisecond;
      disk_slack_hist_ =
          metrics->histogram("qos.disk.cycle_slack_ms", {-ms, ms, 40});
    }
    if (config_.mems_cycle > 0) {
      const double ms = config_.mems_cycle / kMillisecond;
      mems_slack_hist_ =
          metrics->histogram("qos.mems.cycle_slack_ms", {-ms, ms, 40});
    }
    // Headroom as a fraction of the per-stream bound: 1 = empty buffer,
    // 0 = exactly at the bound, negative = violation.
    dram_headroom_hist_ =
        metrics->histogram("qos.dram_headroom_frac", {-0.5, 1.0, 30});
    violations_metric_ = metrics->counter("qos.violations");
    cycles_metric_ = metrics->counter("qos.cycles_audited");
    metrics->SetHelp("qos.violations",
                     "Invariant breaches detected by the online QoS "
                     "auditor (distinct excursions, not samples)");
    metrics->SetHelp("qos.dram_headroom_frac",
                     "Per-stream DRAM headroom (bound - level) / bound "
                     "at every occupancy sample");
  }
}

std::size_t QosAuditor::AddStream(std::int64_t id, BytesPerSecond bit_rate,
                                  Bytes dram_bound, QosDomain domain,
                                  std::int64_t device) {
  StreamState st;
  st.id = id;
  st.bit_rate = bit_rate;
  st.dram_bound = dram_bound;
  st.domain = domain;
  st.device = device < 0 ? 0 : device;
  streams_.push_back(st);
  sealed_ = false;
  return streams_.size() - 1;
}

void QosAuditor::Seal() {
  if (sealed_) return;
  sealed_ = true;

  std::int64_t max_device = 0;
  for (const auto& st : streams_) max_device = std::max(max_device, st.device);
  mems_cycle_index_.assign(
      static_cast<std::size_t>(
          std::max({config_.mems_devices, max_device + 1,
                    static_cast<std::int64_t>(1)})),
      0);

  if (!config_.nested_cycles) return;
  const auto n = static_cast<double>(streams_.size());
  if (n <= 0 || config_.disk_cycle <= 0) return;

  // Eq. 7: the MEMS bank stores every byte twice (written once, read
  // once), so 2 * T_disk * sum(B̄_i) must fit in k * Size_mems.
  if (config_.mems_devices > 0 && config_.mems_device_capacity > 0) {
    Bytes rate_sum = 0;
    for (const auto& st : streams_) rate_sum += st.bit_rate;
    const Bytes used = 2.0 * config_.disk_cycle * rate_sum;
    const Bytes avail = static_cast<double>(config_.mems_devices) *
                        config_.mems_device_capacity;
    if (used > avail * (1.0 + config_.tolerance)) {
      Report(QosInvariant::kMemsStorageBound, -1, -1, 0, avail, used,
             "Eq. 7: 2*N*T_disk*B exceeds k*Size_mems");
    }
  }

  // Eq. 8: T_mems / T_disk must equal M/N for an integer M, so that M
  // MEMS cycles nest exactly inside one disk cycle.
  if (config_.mems_cycle > 0) {
    const double m = n * config_.mems_cycle / config_.disk_cycle;
    if (std::abs(m - std::round(m)) > config_.tolerance * n) {
      Report(QosInvariant::kCycleNesting, -1, -1, 0, std::round(m), m,
             "Eq. 8: N*T_mems/T_disk is not an integer M");
    }
  }
}

void QosAuditor::Report(QosInvariant invariant, std::int64_t stream_id,
                        std::int64_t cycle_index, Seconds time,
                        double expected, double observed,
                        const std::string& detail) {
  ++total_violations_;
  Increment(violations_metric_);

  QosViolation v;
  v.invariant = invariant;
  v.stream_id = stream_id;
  v.cycle_index = cycle_index;
  v.time = time;
  v.expected = expected;
  v.observed = observed;
  v.detail = detail;
  if (config_.trace != nullptr) {
    v.trace_index = NextTraceIndex(*config_.trace);
    config_.trace->Append({time, sim::TraceKind::kNote, "qos", stream_id, 0,
                           "QOS " + v.ToString()});
  }
  if (violations_.size() < config_.max_violations) {
    violations_.push_back(std::move(v));
  }
}

void QosAuditor::SetStreamActive(std::size_t index, bool active) {
  if (index >= streams_.size()) return;
  StreamState& st = streams_[index];
  if (!st.active && active) st.grace = true;  // rejoin at the next boundary
  st.active = active;
  st.ios_in_cycle = 0;
}

void QosAuditor::SetStreamDomain(std::size_t index, QosDomain domain,
                                 std::int64_t device) {
  if (index >= streams_.size()) return;
  StreamState& st = streams_[index];
  st.domain = domain;
  st.device = device < 0 ? 0 : device;
  st.grace = true;  // mid-cycle switch: the old domain owes no IO
  st.ios_in_cycle = 0;
}

void QosAuditor::SetStreamDramBound(std::size_t index, Bytes dram_bound) {
  if (index >= streams_.size()) return;
  streams_[index].dram_bound = dram_bound;
  streams_[index].over_bound = false;
}

void QosAuditor::CloseCycle(QosDomain domain, std::int64_t device,
                            std::int64_t cycle_index, Seconds time) {
  for (auto& st : streams_) {
    if (st.domain != domain) continue;
    if (domain == QosDomain::kMems && device >= 0 && st.device != device) {
      continue;
    }
    if (!st.active) {
      st.ios_in_cycle = 0;
      continue;
    }
    if (st.grace) {
      st.grace = false;
      st.ios_in_cycle = 0;
      continue;
    }
    if (st.ios_in_cycle != 1) {
      Report(QosInvariant::kIoCount, st.id, cycle_index, time, 1.0,
             static_cast<double>(st.ios_in_cycle),
             "not exactly one IO this cycle");
    }
    st.ios_in_cycle = 0;
  }
}

void QosAuditor::EndDiskCycle(Seconds t0, Seconds busy) {
  PROF_SCOPE("obs.qos.disk_cycle_audit");
  if (!sealed_ || config_.disk_cycle <= 0) return;
  Increment(cycles_metric_);
  Observe(disk_slack_hist_, (config_.disk_cycle - busy) / kMillisecond);
  if (busy > config_.disk_cycle * (1.0 + config_.tolerance)) {
    Report(QosInvariant::kDiskCycleOverrun, -1, disk_cycles_, t0 + busy,
           config_.disk_cycle, busy, "disk batch overran its cycle");
  }
  CloseCycle(QosDomain::kDisk, -1, disk_cycles_, t0 + busy);
  ++disk_cycles_;
}

void QosAuditor::EndMemsCycle(std::int64_t device, Seconds t0, Seconds busy) {
  PROF_SCOPE("obs.qos.mems_cycle_audit");
  if (!sealed_ || config_.mems_cycle <= 0) return;
  Increment(cycles_metric_);
  Observe(mems_slack_hist_, (config_.mems_cycle - busy) / kMillisecond);
  const std::size_t idx =
      device >= 0 &&
              device < static_cast<std::int64_t>(mems_cycle_index_.size())
          ? static_cast<std::size_t>(device)
          : 0;
  if (busy > config_.mems_cycle * (1.0 + config_.tolerance)) {
    Report(QosInvariant::kMemsCycleOverrun, -1, mems_cycle_index_[idx],
           t0 + busy, config_.mems_cycle, busy,
           "MEMS batch overran its cycle (device " + std::to_string(device) +
               ")");
  }
  CloseCycle(QosDomain::kMems, device, mems_cycle_index_[idx], t0 + busy);
  ++mems_cycle_index_[idx];
  ++mems_cycles_;
}

void QosAuditor::RecordIo(std::size_t index, Bytes bytes) {
  if (!sealed_ || index >= streams_.size()) return;
  StreamState& st = streams_[index];
  ++st.ios_in_cycle;
  const Seconds cycle = st.domain == QosDomain::kMems ? config_.mems_cycle
                                                      : config_.disk_cycle;
  if (cycle <= 0 || st.domain == QosDomain::kNone) return;
  const Bytes expected = st.bit_rate * cycle;
  if (std::abs(bytes - expected) > expected * config_.tolerance) {
    const std::size_t dev_idx =
        st.device < static_cast<std::int64_t>(mems_cycle_index_.size())
            ? static_cast<std::size_t>(st.device)
            : 0;
    const std::int64_t cycle_index = st.domain == QosDomain::kMems
                                         ? mems_cycle_index_[dev_idx]
                                         : disk_cycles_;
    Report(QosInvariant::kIoBytes, st.id, cycle_index, 0, expected, bytes,
           "IO size differs from bit_rate * cycle");
  }
}

void QosAuditor::RecordDramLevel(std::size_t index, Seconds now,
                                 Bytes level) {
  if (!sealed_ || index >= streams_.size()) return;
  StreamState& st = streams_[index];
  dram_level_sum_ += level - st.last_level;
  st.last_level = level;

  const std::int64_t cycle_index =
      st.domain == QosDomain::kMems
          ? mems_cycle_index_[st.device <
                                      static_cast<std::int64_t>(
                                          mems_cycle_index_.size())
                                  ? static_cast<std::size_t>(st.device)
                                  : 0]
          : (st.domain == QosDomain::kDisk ? disk_cycles_ : -1);

  if (st.dram_bound > 0) {
    Observe(dram_headroom_hist_, (st.dram_bound - level) / st.dram_bound);
    const bool over = level > st.dram_bound * (1.0 + config_.tolerance);
    if (over && !st.over_bound) {
      Report(QosInvariant::kDramBound, st.id, cycle_index, now,
             st.dram_bound, level,
             "per-stream DRAM occupancy above its sizing");
    }
    st.over_bound = over;
  }
  if (config_.dram_total_bound > 0) {
    const bool over = dram_level_sum_ >
                      config_.dram_total_bound * (1.0 + config_.tolerance);
    if (over && !over_total_) {
      Report(QosInvariant::kDramTotalBound, st.id, cycle_index, now,
             config_.dram_total_bound, dram_level_sum_,
             "summed DRAM occupancy above the total budget");
    }
    over_total_ = over;
  }
}

Bytes QosAuditor::stream_dram_bound_sum() const {
  Bytes total = 0;
  for (const StreamState& s : streams_) total += s.dram_bound;
  return total;
}

std::string QosAuditor::Summary() const {
  std::ostringstream out;
  out << "qos: " << total_violations_ << " violation"
      << (total_violations_ == 1 ? "" : "s") << " over " << disk_cycles_
      << " disk + " << mems_cycles_ << " MEMS cycles (" << streams_.size()
      << " streams)";
  return out.str();
}

}  // namespace memstream::obs
