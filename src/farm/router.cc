#include "farm/router.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace memstream::farm {

Result<AdmissionRouter> AdmissionRouter::Create(const Placement* placement,
                                               const RouterConfig& config) {
  if (placement == nullptr) {
    return Status::InvalidArgument("placement is required");
  }
  if (!config.node_latency) {
    return Status::InvalidArgument("node_latency is required");
  }
  if (!(std::isfinite(config.node_rate) && config.node_rate > 0)) {
    return Status::InvalidArgument("node_rate must be finite and > 0");
  }
  if (!(std::isfinite(config.dram_budget_per_shard) &&
        config.dram_budget_per_shard > 0)) {
    return Status::InvalidArgument(
        "dram_budget_per_shard must be finite and > 0");
  }
  AdmissionRouter router(placement);
  const std::int64_t shards = placement->num_shards();
  router.controllers_.reserve(static_cast<std::size_t>(shards));
  for (std::int64_t s = 0; s < shards; ++s) {
    server::AdmissionConfig ac;
    ac.dram_budget = config.dram_budget_per_shard;
    ac.disk_rate = config.node_rate;
    ac.disk_latency = config.node_latency;
    auto controller = server::AdmissionController::Create(ac);
    MEMSTREAM_RETURN_IF_ERROR(controller.status());
    router.controllers_.push_back(std::move(controller).value());
  }
  router.up_.assign(static_cast<std::size_t>(shards), true);
  return router;
}

RouteDecision AdmissionRouter::Route(std::int64_t title,
                                     BytesPerSecond bit_rate) {
  ++attempts_;
  RouteDecision decision;
  decision.reason = "no live replica";

  ShardSet candidates = placement_->Lookup(title);
  // Least-loaded first, ties to the lowest shard id (insertion sort on
  // the fixed-size set keeps this allocation-free).
  for (std::int32_t i = 1; i < candidates.count; ++i) {
    const std::int32_t s = candidates.shard[static_cast<std::size_t>(i)];
    std::int32_t j = i - 1;
    auto heavier = [this](std::int32_t a, std::int32_t b) {
      const std::int64_t la = admitted_on(a), lb = admitted_on(b);
      return la > lb || (la == lb && a > b);
    };
    while (j >= 0 &&
           heavier(candidates.shard[static_cast<std::size_t>(j)], s)) {
      candidates.shard[static_cast<std::size_t>(j + 1)] =
          candidates.shard[static_cast<std::size_t>(j)];
      --j;
    }
    candidates.shard[static_cast<std::size_t>(j + 1)] = s;
  }

  for (std::int32_t i = 0; i < candidates.count; ++i) {
    const std::int32_t s = candidates.shard[static_cast<std::size_t>(i)];
    if (!up_[static_cast<std::size_t>(s)]) continue;
    server::AdmissionDecision d =
        controllers_[static_cast<std::size_t>(s)].TryAdmit(bit_rate);
    if (d.admitted) {
      ++admitted_;
      decision.admitted = true;
      decision.shard = s;
      decision.streams_on_shard = d.streams_after;
      decision.dram_required = d.dram_required;
      decision.reason.clear();
      return decision;
    }
    decision.reason = std::move(d.reason);
  }
  ++rejected_;
  return decision;
}

Status AdmissionRouter::Release(std::int32_t shard, BytesPerSecond bit_rate) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("shard index out of range");
  }
  return controllers_[static_cast<std::size_t>(shard)].Release(bit_rate);
}

Status AdmissionRouter::SetShardUp(std::int32_t shard, bool up) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("shard index out of range");
  }
  up_[static_cast<std::size_t>(shard)] = up;
  return Status::OK();
}

}  // namespace memstream::farm
