// Theorem kernels: the single implementation of the paper's closed-form
// buffer sizings. ProbeTheorem1* (Theorem 1 / Corollary 1) and
// ProbeCache* (Theorems 3/4) compute the sizing and signal an invalid
// or infeasible input with NaN instead of a Status. The Result-returning
// solvers (PerStreamBufferSize, CachePerStreamBuffer and their totals)
// validate their arguments, call these kernels, and map NaN to
// Infeasible; the capacity planners call the kernels directly, so the
// infeasible probes of their searches allocate no error message.
// LargestTrueInline drives those searches without std::function
// indirection. incremental_model_test checks the NaN <=> non-OK mapping
// over randomized parameters.

#ifndef MEMSTREAM_MODEL_INCREMENTAL_H_
#define MEMSTREAM_MODEL_INCREMENTAL_H_

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/units.h"
#include "model/mems_cache.h"
#include "model/profiles.h"

namespace memstream::model {

/// Bit pattern of a double, for bit-exact comparisons.
inline std::uint64_t DoubleBits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

inline double QuietNaN() {
  return std::numeric_limits<double>::quiet_NaN();
}

// --- probe kernels -------------------------------------------------------

/// Theorem 1 / Corollary 1 per-stream buffer
/// S = n * L̄ * R * B̄ / (R - n * B̄); NaN on an invalid domain or when
/// R <= n * B̄.
inline double ProbeTheorem1PerStream(std::int64_t n, BytesPerSecond bit_rate,
                                     BytesPerSecond rate, Seconds latency) {
  if (n < 1 || bit_rate <= 0 || rate <= 0 || latency < 0) return QuietNaN();
  const double nn = static_cast<double>(n);
  if (!(rate > nn * bit_rate)) return QuietNaN();
  return nn * latency * rate * bit_rate / (rate - nn * bit_rate);
}

/// n * ProbeTheorem1PerStream (NaN propagates).
inline double ProbeTheorem1Total(std::int64_t n, BytesPerSecond bit_rate,
                                 BytesPerSecond rate, Seconds latency) {
  const double s = ProbeTheorem1PerStream(n, bit_rate, rate, latency);
  return static_cast<double>(n) * s;
}

/// Theorems 3/4 per-stream buffer. Both share one shape:
/// S = E * L̄m * (k*Rm) * B̄ / (k*Rm - E' * B̄), where E is the effective
/// number of positioning delays per cycle (n striped; (n+k-1)/k
/// replicated, each device seeking for ceil(n/k) <= (n+k-1)/k streams)
/// and E' the effective bandwidth load factor. NaN on an invalid domain
/// or when the bank cannot sustain the load.
inline double ProbeCachePerStream(std::int64_t n, BytesPerSecond bit_rate,
                                  std::int64_t k, const DeviceProfile& mems,
                                  CachePolicy policy) {
  if (n < 1 || bit_rate <= 0 || k < 1) return QuietNaN();
  if (!CacheCanSustain(n, bit_rate, k, mems.rate, policy)) return QuietNaN();
  const double bank_rate = static_cast<double>(k) * mems.rate;
  const double seeks =
      policy == CachePolicy::kStriped
          ? static_cast<double>(n)
          : static_cast<double>(n + k - 1) / static_cast<double>(k);
  const double load = policy == CachePolicy::kStriped
                          ? static_cast<double>(n)
                          : static_cast<double>(n + k - 1);
  return seeks * mems.latency * bank_rate * bit_rate /
         (bank_rate - load * bit_rate);
}

/// n * ProbeCachePerStream (NaN propagates).
inline double ProbeCacheTotal(std::int64_t n, BytesPerSecond bit_rate,
                              std::int64_t k, const DeviceProfile& mems,
                              CachePolicy policy) {
  const double s = ProbeCachePerStream(n, bit_rate, k, mems, policy);
  return static_cast<double>(n) * s;
}

/// Largest n in [lo, hi] with pred(n) true, or lo - 1 when pred(lo) is
/// false. Same contract as math_utils' LargestTrue (pred monotone
/// non-increasing) but monomorphized on the predicate: a probe costs a
/// handful of flops, so the std::function hop would dominate it.
template <typename Pred>
std::int64_t LargestTrueInline(Pred&& pred, std::int64_t lo,
                               std::int64_t hi) {
  if (lo > hi || !pred(lo)) return lo - 1;
  std::int64_t known_true = lo;
  std::int64_t known_false = hi + 1;
  while (known_false - known_true > 1) {
    const std::int64_t mid = known_true + (known_false - known_true) / 2;
    if (pred(mid)) {
      known_true = mid;
    } else {
      known_false = mid;
    }
  }
  return known_true;
}

// --- solve accounting ---------------------------------------------------

/// Theorem-solve counter kept by AdmissionController::memo_stats():
/// `misses` counts every Theorem 1/2 solve the controller runs. Nothing
/// is cached, so `hits` stays 0; the two fields keep the counter's
/// published shape.
struct SolveMemoStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

}  // namespace memstream::model

#endif  // MEMSTREAM_MODEL_INCREMENTAL_H_
