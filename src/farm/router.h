// Farm-level admission router: one model-driven AdmissionController per
// shard, fronted by the catalog placement. A request for a title is
// offered to that title's replicas in least-loaded order; each candidate
// re-checks Theorem-1/2 headroom through the controller's direct solve,
// so a stream is only ever admitted where the analytical sizing still
// fits the shard's DRAM budget and bandwidth.
//
// The router also carries the farm's availability state: a shard marked
// down (fault::FaultPlan node failure) is skipped by Route until its
// repair event marks it back up. All calls are made from the single
// orchestration thread (see sharded_farm.cc); the router is not
// internally synchronized and is deliberately clock-free, so routing the
// same request sequence is deterministic at any thread count.

#ifndef MEMSTREAM_FARM_ROUTER_H_
#define MEMSTREAM_FARM_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "farm/placement.h"
#include "model/profiles.h"
#include "server/admission.h"

namespace memstream::farm {

/// Identical per-shard node hardware the controllers size against.
struct RouterConfig {
  Bytes dram_budget_per_shard = 4 * kGB;
  /// Aggregate media rate of one shard node (a striped array modeled as
  /// one device).
  BytesPerSecond node_rate = 300 * kMBps;
  /// L̄_disk(n) of the node, required (see model::DiskLatencyFn).
  model::LatencyFn node_latency;
};

/// Outcome of routing one request.
struct RouteDecision {
  bool admitted = false;
  std::int32_t shard = -1;        ///< admitting shard; -1 on rejection
  std::int64_t streams_on_shard = 0;  ///< shard load after admission
  Bytes dram_required = 0;        ///< shard DRAM at the new load
  std::string reason;             ///< why the last candidate rejected
};

class AdmissionRouter {
 public:
  /// `placement` is not owned and must outlive the router. Requires a
  /// node_latency function and a finite node_rate and
  /// dram_budget_per_shard > 0.
  static Result<AdmissionRouter> Create(const Placement* placement,
                                        const RouterConfig& config);

  /// Offers a stream of `bit_rate` for `title` to the title's live
  /// replicas, least-loaded first (ties to the lowest shard id).
  RouteDecision Route(std::int64_t title, BytesPerSecond bit_rate);

  /// Releases one admitted stream of `bit_rate` from `shard`.
  Status Release(std::int32_t shard, BytesPerSecond bit_rate);

  /// Marks a shard down (skipped by Route) or back up.
  Status SetShardUp(std::int32_t shard, bool up);
  bool shard_up(std::int32_t shard) const {
    return up_[static_cast<std::size_t>(shard)];
  }

  std::int64_t num_shards() const {
    return static_cast<std::int64_t>(controllers_.size());
  }
  std::int64_t admitted_on(std::int32_t shard) const {
    return controllers_[static_cast<std::size_t>(shard)].admitted_count();
  }
  Bytes dram_on(std::int32_t shard) const {
    return controllers_[static_cast<std::size_t>(shard)]
        .CurrentDramRequirement();
  }
  const server::AdmissionController& controller(std::int32_t shard) const {
    return controllers_[static_cast<std::size_t>(shard)];
  }

  // Farm-level routing tallies (kept here instead of wall-clock metrics
  // so routing stays deterministic).
  std::int64_t attempts() const { return attempts_; }
  std::int64_t admitted() const { return admitted_; }
  std::int64_t rejected() const { return rejected_; }

 private:
  explicit AdmissionRouter(const Placement* placement)
      : placement_(placement) {}

  const Placement* placement_;
  std::vector<server::AdmissionController> controllers_;  ///< per shard
  std::vector<bool> up_;
  std::int64_t attempts_ = 0;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
};

}  // namespace memstream::farm

#endif  // MEMSTREAM_FARM_ROUTER_H_
