// Model-driven admission control: a new stream is admitted only if the
// analytical sizing (Theorem 1 directly from disk, or Theorem 2 through
// the MEMS buffer) still fits the DRAM budget and the bandwidth bounds
// with the stream added. The controller counts admitted streams per
// bit-rate class and evaluates the model at their average, matching the
// paper's B̄.

#ifndef MEMSTREAM_SERVER_ADMISSION_H_
#define MEMSTREAM_SERVER_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/incremental.h"
#include "model/mems_buffer.h"
#include "model/profiles.h"
#include "model/timecycle.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace memstream::server {

/// Static description of the server the controller guards.
struct AdmissionConfig {
  Bytes dram_budget = 1 * kGB;
  BytesPerSecond disk_rate = 300 * kMBps;
  model::LatencyFn disk_latency;  ///< L̄_disk(n), required
  /// MEMS buffer in front of the disk; 0 disables it (direct streaming).
  std::int64_t buffer_k = 0;
  model::DeviceProfile mems;      ///< used when buffer_k > 0
  /// Optional telemetry: admission.{attempts,admitted,rejected} counters
  /// and an admission.latency_us histogram. Null (the default) keeps
  /// TryAdmit clock-free. Not owned.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional SLO monitor: each TryAdmit's wall-clock decision latency
  /// feeds the standard "admission_latency" SLO (good = under the spec's
  /// threshold). Null keeps TryAdmit clock-free. Not owned.
  obs::SloMonitor* slo = nullptr;
};

/// Outcome of an admission test.
struct AdmissionDecision {
  bool admitted = false;
  std::int64_t streams_after = 0;
  Bytes dram_required = 0;   ///< total DRAM at the post-admission load
  std::string reason;        ///< why a rejection happened
};

/// Tracks the admitted set and enforces the model's feasibility bounds.
///
/// The sizing is a pure function of (n, B̄), so the admitted set is kept
/// as integer stream counts per bit-rate class: a short vector of
/// (rate, count) sorted by rate, one entry per distinct admitted rate.
/// Admit and Release touch one class, O(classes), and re-sum the total
/// rate from the classes in rate order. The state after any admit/release
/// sequence is therefore exactly that of a fresh controller that admitted
/// only the survivors, for any rates, and it never grows past the number
/// of distinct live rates. Each decision runs the Theorem 1/2 closed form
/// directly; a solve costs a few flops, so nothing is cached.
class AdmissionController {
 public:
  /// Requires a disk_latency function and a finite dram_budget and
  /// disk_rate > 0.
  static Result<AdmissionController> Create(AdmissionConfig config);

  /// Tests a stream of `bit_rate`; admits and records it when feasible.
  AdmissionDecision TryAdmit(BytesPerSecond bit_rate);

  /// Removes one previously admitted stream of `bit_rate`.
  Status Release(BytesPerSecond bit_rate);

  std::int64_t admitted_count() const { return admitted_count_; }
  BytesPerSecond total_bit_rate() const { return total_rate_; }

  /// DRAM the current admitted set needs (0 when empty).
  Bytes CurrentDramRequirement() const;

  /// Theorem-solve count: `misses` is every solve run by TryAdmit and
  /// CurrentDramRequirement; `hits` is always 0 (nothing is cached).
  const model::SolveMemoStats& memo_stats() const { return solves_; }

 private:
  explicit AdmissionController(AdmissionConfig config)
      : config_(std::move(config)) {
    if (config_.metrics != nullptr) {
      attempts_metric_ = config_.metrics->counter("admission.attempts");
      admitted_metric_ = config_.metrics->counter("admission.admitted");
      rejected_metric_ = config_.metrics->counter("admission.rejected");
      latency_hist_ = config_.metrics->histogram("admission.latency_us",
                                                 {0.0, 500.0, 50});
    }
    if (config_.slo != nullptr) {
      slo_latency_ = config_.slo->Add(obs::StandardAdmissionLatencySlo());
    }
  }

  /// Admitted streams of one bit-rate.
  struct RateClass {
    BytesPerSecond rate = 0;
    std::int64_t count = 0;
  };

  /// Total DRAM needed for n streams at average rate `avg`; infinity
  /// (with `reason` set, when non-null) when infeasible.
  Bytes DramFor(std::int64_t n, BytesPerSecond avg,
                std::string* reason) const;

  /// Re-sums total_rate_ from the classes in rate order.
  void SumRates();

  AdmissionConfig config_;
  std::vector<RateClass> classes_;  ///< sorted by rate, every count > 0
  std::int64_t admitted_count_ = 0;
  BytesPerSecond total_rate_ = 0;
  mutable model::SolveMemoStats solves_;
  // Telemetry handles (null when the matching config member is null).
  obs::Counter* attempts_metric_ = nullptr;
  obs::Counter* admitted_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::HistogramMetric* latency_hist_ = nullptr;
  obs::Slo* slo_latency_ = nullptr;
};

}  // namespace memstream::server

#endif  // MEMSTREAM_SERVER_ADMISSION_H_
