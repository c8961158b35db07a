#include "obs/server_probe.h"

namespace memstream::obs {

Status ServerProbe::CheckStreamCount(std::size_t num_streams) const {
  if (sinks_.auditor != nullptr &&
      sinks_.auditor->num_streams() != num_streams) {
    return Status::InvalidArgument(
        "auditor stream registration does not match the stream set");
  }
  return Status::OK();
}

void ServerProbe::Open(const std::string& prefix, std::size_t num_streams,
                       bool level_gauges) {
  prefix_ = prefix;
  level_gauges_ = level_gauges && sinks_.metrics != nullptr;
  if (sinks_.metrics != nullptr) {
    ios_ = sinks_.metrics->counter(prefix_ + ".ios");
  }
  if (level_gauges_) level_gauge_.reserve(num_streams);
  if (sinks_.timelines != nullptr) level_series_.reserve(num_streams);
  if (sinks_.journal != nullptr) jslot_.reserve(num_streams);
  if (sinks_.journal != nullptr || sinks_.slo != nullptr) {
    uf_seen_.reserve(num_streams);
  }
  if (sinks_.slo != nullptr) {
    slo_underflow_ = sinks_.slo->Add(StandardUnderflowSlo());
    slo_slack_ = sinks_.slo->Add(StandardCycleSlackSlo());
  }
}

void ServerProbe::AddCycle(CycleDomain domain, const std::string& stem,
                           Seconds cycle, bool count_overruns,
                           const std::string& utilization_series) {
  Cycle& c = cycles_[static_cast<std::size_t>(domain)];
  if (MetricsRegistry* m = sinks_.metrics; m != nullptr) {
    const std::string name = prefix_ + "." + stem;
    const double cycle_ms = cycle / kMillisecond;
    c.slack_ms =
        m->histogram(name + "cycle_slack_ms", {-cycle_ms, cycle_ms, 40});
    c.count = m->counter(name + "cycles");
    if (count_overruns) c.overruns = m->counter(name + "cycle_overruns");
  }
  if (sinks_.timelines != nullptr && !utilization_series.empty()) {
    c.utilization = sinks_.timelines->AddSeries(utilization_series, "fraction");
  }
}

void ServerProbe::TrackAvailability() {
  if (sinks_.slo != nullptr) {
    slo_availability_ = sinks_.slo->Add(StandardAvailabilitySlo());
  }
}

void ServerProbe::AddStream(std::int64_t id, BytesPerSecond bit_rate,
                            Bytes envelope, bool playback) {
  if (playback) ++playback_;
  if (level_gauges_ || sinks_.timelines != nullptr) {
    std::string name = "stream.";
    name += std::to_string(id);
    name += playback ? ".dram_bytes" : ".staging_bytes";
    if (level_gauges_) {
      level_gauge_.push_back(sinks_.metrics->time_weighted(name));
    }
    if (sinks_.timelines != nullptr) {
      level_series_.push_back(sinks_.timelines->AddSeries(name, "bytes"));
    }
  }
  if (sinks_.journal != nullptr) {
    jslot_.push_back(sinks_.journal->EnsureStream(id, bit_rate, envelope, 0.0));
  }
  if (sinks_.journal != nullptr || sinks_.slo != nullptr) uf_seen_.push_back(0);
}

void ServerProbe::AddDeviceOccupancy(const std::string& name) {
  const std::string metric = "device." + name + ".occupancy_bytes";
  if (sinks_.metrics != nullptr) {
    device_gauge_.push_back(sinks_.metrics->time_weighted(metric));
  }
  if (sinks_.timelines != nullptr) {
    device_series_.push_back(sinks_.timelines->AddSeries(metric, "bytes"));
  }
}

void ServerProbe::Shed(std::size_t i, Seconds t) {
  if (sinks_.auditor != nullptr) sinks_.auditor->SetStreamActive(i, false);
  if (!jslot_.empty()) sinks_.journal->MarkShed(jslot_[i], t);
}

void ServerProbe::Readmitted(std::size_t i, Seconds t) {
  if (sinks_.auditor != nullptr) sinks_.auditor->SetStreamActive(i, true);
  if (!jslot_.empty()) sinks_.journal->MarkReadmitted(jslot_[i], t);
}

void ServerProbe::Degraded(std::size_t i, Seconds t, double detail) {
  if (!jslot_.empty()) sinks_.journal->MarkDegraded(jslot_[i], t, detail);
}

void ServerProbe::Moved(std::size_t i, QosDomain domain,
                        std::int64_t device) {
  if (sinks_.auditor != nullptr) {
    sinks_.auditor->SetStreamDomain(i, domain, device);
  }
}

void ServerProbe::CycleChanged(CycleDomain domain, Seconds cycle) {
  if (sinks_.auditor == nullptr) return;
  if (domain == CycleDomain::kDisk) {
    sinks_.auditor->SetDiskCycle(cycle);
  } else {
    sinks_.auditor->SetMemsCycle(cycle);
  }
}

void ServerProbe::DramBound(std::size_t i, Bytes bound) {
  if (sinks_.auditor != nullptr) sinks_.auditor->SetStreamDramBound(i, bound);
}

void ServerProbe::DramTotalFromStreams() {
  if (QosAuditor* a = sinks_.auditor; a != nullptr) {
    a->SetDramTotalBound(a->stream_dram_bound_sum());
  }
}

}  // namespace memstream::obs
