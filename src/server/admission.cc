#include "server/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace memstream::server {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<AdmissionController> AdmissionController::Create(
    AdmissionConfig config) {
  if (!config.disk_latency) {
    return Status::InvalidArgument("disk_latency function is required");
  }
  if (!(std::isfinite(config.dram_budget) && config.dram_budget > 0)) {
    return Status::InvalidArgument("dram_budget must be finite and > 0");
  }
  if (!(std::isfinite(config.disk_rate) && config.disk_rate > 0)) {
    return Status::InvalidArgument("disk_rate must be finite and > 0");
  }
  if (config.buffer_k < 0) {
    return Status::InvalidArgument("buffer_k must be >= 0");
  }
  if (config.buffer_k > 0 && config.mems.rate <= 0) {
    return Status::InvalidArgument("mems profile required when buffer_k > 0");
  }
  return AdmissionController(std::move(config));
}

Bytes AdmissionController::DramFor(std::int64_t n, BytesPerSecond avg,
                                   std::string* reason) const {
  if (n == 0) return 0;
  ++solves_.misses;
  model::DeviceProfile disk;
  disk.rate = config_.disk_rate;
  disk.latency = config_.disk_latency(n);

  if (config_.buffer_k > 0 && n >= 2) {
    model::MemsBufferParams params;
    params.k = config_.buffer_k;
    params.disk = disk;
    params.mems = config_.mems;
    auto sized = model::SolveMemsBuffer(n, avg, params);
    if (sized.ok()) return sized.value().dram_total;
    if (reason != nullptr) *reason = sized.status().ToString();
    return kInf;
  }

  const double total =
      model::ProbeTheorem1Total(n, avg, disk.rate, disk.latency);
  if (!std::isnan(total)) return total;
  // Infeasible: the Status solver over the same kernel names the cause.
  if (reason != nullptr) {
    *reason = model::TotalBufferSize(n, avg, disk).status().ToString();
  }
  return kInf;
}

void AdmissionController::SumRates() {
  total_rate_ = 0;
  for (const RateClass& c : classes_) {
    total_rate_ += c.rate * static_cast<double>(c.count);
  }
}

AdmissionDecision AdmissionController::TryAdmit(BytesPerSecond bit_rate) {
  // The wall clock runs only when a latency consumer is installed, so
  // untelemetered admission stays clock-free (and deterministic tests
  // see no syscalls).
  const bool timed = slo_latency_ != nullptr || latency_hist_ != nullptr;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};

  AdmissionDecision decision;
  decision.streams_after = admitted_count() + 1;
  if (bit_rate <= 0) {
    decision.reason = "bit_rate must be > 0";
  } else {
    const BytesPerSecond avg =
        (total_rate_ + bit_rate) /
        static_cast<double>(decision.streams_after);
    std::string infeasible;
    decision.dram_required =
        DramFor(decision.streams_after, avg, &infeasible);
    if (decision.dram_required > config_.dram_budget) {
      decision.reason = decision.dram_required == kInf
                            ? std::move(infeasible)
                            : "DRAM budget exceeded";
    } else {
      auto it = std::lower_bound(
          classes_.begin(), classes_.end(), bit_rate,
          [](const RateClass& c, BytesPerSecond r) { return c.rate < r; });
      if (it == classes_.end() || it->rate != bit_rate) {
        it = classes_.insert(it, RateClass{bit_rate, 0});
      }
      ++it->count;
      ++admitted_count_;
      SumRates();
      decision.admitted = true;
    }
  }
  if (!decision.admitted) decision.streams_after = admitted_count();

  obs::Increment(attempts_metric_);
  obs::Increment(decision.admitted ? admitted_metric_ : rejected_metric_);
  if (timed) {
    const auto end = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(end - start).count();
    obs::Observe(latency_hist_, elapsed * 1e6);
    if (slo_latency_ != nullptr) {
      const double now =
          std::chrono::duration<double>(end.time_since_epoch()).count();
      const bool good = elapsed <= slo_latency_->spec().threshold;
      slo_latency_->Record(now, good ? 1 : 0, good ? 0 : 1);
    }
  }
  return decision;
}

Status AdmissionController::Release(BytesPerSecond bit_rate) {
  auto it = std::find_if(
      classes_.begin(), classes_.end(),
      [bit_rate](const RateClass& c) { return c.rate == bit_rate; });
  if (it == classes_.end()) {
    return Status::NotFound("no admitted stream with that bit_rate");
  }
  if (--it->count == 0) classes_.erase(it);
  --admitted_count_;
  SumRates();
  return Status::OK();
}

Bytes AdmissionController::CurrentDramRequirement() const {
  if (admitted_count_ == 0) return 0;
  return DramFor(admitted_count_,
                 total_rate_ / static_cast<double>(admitted_count_), nullptr);
}

}  // namespace memstream::server
