// Deterministic pseudo-random generation for workloads and simulation.
//
// A small xoshiro256** engine plus the distributions the workload layer
// needs: uniform, exponential (Poisson arrivals), Zipf (popularity), and
// the paper's X:Y two-class popularity sampler lives in workload/.

#ifndef MEMSTREAM_COMMON_RANDOM_H_
#define MEMSTREAM_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace memstream {

/// xoshiro256** PRNG. Deterministic across platforms for a given seed,
/// unlike std::mt19937 paired with std:: distributions.
class Rng {
 public:
  /// Seeds the engine; the same seed always produces the same sequence.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double NextExponential(double rate);

 private:
  std::uint64_t s_[4];
};

/// Discrete Zipf(s) distribution over ranks 1..n: P(rank k) ~ 1/k^s.
///
/// Sampling inverts a precomputed CDF in O(1) expected time: a guide
/// table of m = bit_ceil(n) buckets holds, for each j, the first CDF
/// index at or above j/m, so a draw u searches only the CDF slice of its
/// bucket floor(u*m). m is a power of two, so u*m and j/m are exact and
/// the rank always equals a full-range lower_bound of u over the CDF.
/// Used to model stream popularity skew beyond the paper's two-class X:Y
/// model.
class ZipfDistribution {
 public:
  /// Builds the CDF and its guide table. Requires 1 <= n < 2^32 and a
  /// finite s >= 0 (s == 0 is uniform).
  ZipfDistribution(std::size_t n, double exponent);

  /// Samples a rank in [1, n].
  std::size_t Sample(Rng& rng) const { return Quantile(rng.NextDouble()); }

  /// Rank in [1, n] of a uniform draw u in [0, 1): the first rank whose
  /// CDF value is >= u.
  std::size_t Quantile(double u) const;

  /// Probability of the given rank (1-based).
  double Pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }
  /// CDF by rank - 1; the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  /// guide_[j] = first CDF index with cdf_[index] >= j / buckets, for
  /// j in [0, buckets]; buckets = guide_.size() - 1, a power of two.
  std::vector<std::uint32_t> guide_;
};

}  // namespace memstream

#endif  // MEMSTREAM_COMMON_RANDOM_H_
