#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace memstream {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed with SplitMix64 per the xoshiro authors' advice.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is negligible for span << 2^64; acceptable for workloads.
  return lo + static_cast<std::int64_t>(NextU64() % span);
}

double Rng::NextExponential(double rate) {
  assert(rate > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(1.0 - u) / rate;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) {
  assert(n >= 1 && n <= std::numeric_limits<std::uint32_t>::max());
  assert(std::isfinite(exponent) && exponent >= 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), exponent);
    cdf_[k - 1] = acc;
  }
  for (auto& v : cdf_) v /= acc;

  // One merged sweep: the CDF is non-decreasing, so each bucket edge's
  // lower_bound starts where the previous edge's stopped.
  const std::size_t buckets = std::bit_ceil(n);
  const double inv = 1.0 / static_cast<double>(buckets);  // exact: 2^-b
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j <= buckets; ++j) {
    const double edge = static_cast<double>(j) * inv;
    while (i < n && cdf_[i] < edge) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

std::size_t ZipfDistribution::Quantile(double u) const {
  // lower_bound is monotone in u, so the full-range answer for
  // u in [j/m, (j+1)/m) lies in [guide_[j], guide_[j + 1]].
  const std::size_t buckets = guide_.size() - 1;
  const double scaled = u * static_cast<double>(buckets);
  const std::size_t j =
      scaled > 0 ? std::min(static_cast<std::size_t>(scaled), buckets - 1)
                 : 0;
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1];
  auto it = std::lower_bound(first, last, u);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::Pmf(std::size_t rank) const {
  assert(rank >= 1 && rank <= cdf_.size());
  const double hi = cdf_[rank - 1];
  const double lo = rank >= 2 ? cdf_[rank - 2] : 0.0;
  return hi - lo;
}

}  // namespace memstream
