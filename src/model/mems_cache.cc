#include "model/mems_cache.h"

#include <algorithm>
#include <cmath>

#include "model/incremental.h"

namespace memstream::model {

const char* CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kStriped:
      return "striped";
    case CachePolicy::kReplicated:
      return "replicated";
  }
  return "?";
}

bool IsValidPopularity(const Popularity& pop) {
  return pop.x > 0.0 && pop.x <= 1.0 && pop.y >= pop.x && pop.y <= 1.0;
}

Result<double> HitRate(const Popularity& pop, double p) {
  if (!IsValidPopularity(pop)) {
    return Status::InvalidArgument("popularity must satisfy 0 < x <= y <= 1");
  }
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("cached fraction p must be in [0, 1]");
  }
  // Eq. 11: titles are cached most-popular first; within a class access
  // is uniform, so hits scale linearly with the cached share of the class.
  if (p <= pop.x) {
    return (p / pop.x) * pop.y;
  }
  if (pop.x >= 1.0) return 1.0;
  return pop.y + (p - pop.x) / (1.0 - pop.x) * (1.0 - pop.y);
}

double CachedFraction(CachePolicy policy, std::int64_t k,
                      Bytes mems_capacity_per_device, Bytes content_size) {
  if (content_size <= 0 || k < 1 || mems_capacity_per_device <= 0) return 0;
  const Bytes cache = policy == CachePolicy::kStriped
                          ? static_cast<double>(k) * mems_capacity_per_device
                          : mems_capacity_per_device;
  return std::min(cache / content_size, 1.0);
}

bool CacheCanSustain(std::int64_t n, BytesPerSecond bit_rate,
                     std::int64_t k, BytesPerSecond mems_rate,
                     CachePolicy policy) {
  if (n < 0 || k < 1) return false;
  if (n == 0) return true;
  const double bank_rate = static_cast<double>(k) * mems_rate;
  const double load = policy == CachePolicy::kStriped
                          ? static_cast<double>(n) * bit_rate
                          : static_cast<double>(n + k - 1) * bit_rate;
  return bank_rate > load;
}

std::int64_t MaxCacheStreamsBandwidthBound(BytesPerSecond bit_rate,
                                           std::int64_t k,
                                           BytesPerSecond mems_rate,
                                           CachePolicy policy) {
  if (bit_rate <= 0 || k < 1 || mems_rate <= 0) return 0;
  const double bank_rate = static_cast<double>(k) * mems_rate;
  double n_max = bank_rate / bit_rate;
  if (policy == CachePolicy::kReplicated) {
    n_max -= static_cast<double>(k - 1);
  }
  auto n = static_cast<std::int64_t>(std::ceil(n_max)) - 1;
  while (n > 0 && !CacheCanSustain(n, bit_rate, k, mems_rate, policy)) --n;
  return std::max<std::int64_t>(n, 0);
}

Result<Bytes> CachePerStreamBuffer(std::int64_t n, BytesPerSecond bit_rate,
                                   std::int64_t k, const DeviceProfile& mems,
                                   CachePolicy policy) {
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (bit_rate <= 0) return Status::InvalidArgument("bit_rate must be > 0");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const double s = ProbeCachePerStream(n, bit_rate, k, mems, policy);
  if (std::isnan(s)) {
    return Status::Infeasible("cache bank rate below the stream load");
  }
  return s;
}

Result<Bytes> CacheTotalBuffer(std::int64_t n, BytesPerSecond bit_rate,
                               std::int64_t k, const DeviceProfile& mems,
                               CachePolicy policy) {
  auto s = CachePerStreamBuffer(n, bit_rate, k, mems, policy);
  MEMSTREAM_RETURN_IF_ERROR(s.status());
  return static_cast<double>(n) * s.value();
}

}  // namespace memstream::model
