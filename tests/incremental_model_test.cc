// The Theorem kernels in model/incremental.h are the single
// implementation of each closed-form sizing; the Result-returning solvers
// wrap them with argument checks and classified errors. This test pins
// that mapping and the searches built on the kernels:
//
//  - kernels vs Result-returning solvers: over randomized parameters
//    (feasible and infeasible alike), a kernel returns NaN exactly when
//    the solver is non-OK, and the solver's value otherwise;
//  - LargestTrueInline vs math_utils' LargestTrue on random monotone
//    predicates;
//  - BreakEvenCostFactor's hoisted bisection vs a reference that runs
//    the full EvaluateSensitivity at every probe.

#include <cmath>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "common/random.h"
#include "device/device_catalog.h"
#include "model/incremental.h"
#include "model/mems_cache.h"
#include "model/profiles.h"
#include "model/sensitivity.h"
#include "model/timecycle.h"

namespace memstream {
namespace {

using model::DoubleBits;

TEST(ProbeKernelTest, Theorem1MatchesFullSolverBitExactly) {
  Rng rng(101);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::int64_t n = rng.NextInt(-2, 300);
    const BytesPerSecond b = rng.NextDouble() * 4 * kMBps;
    model::DeviceProfile dev;
    // Spans both sides of the R > n * B̄ boundary.
    dev.rate = rng.NextDouble() * 400 * kMBps;
    dev.latency = (rng.NextDouble() - 0.05) * 20 * kMillisecond;

    const double per = model::ProbeTheorem1PerStream(n, b, dev.rate,
                                                     dev.latency);
    auto full = model::PerStreamBufferSize(n, b, dev);
    if (full.ok()) {
      ++feasible;
      ASSERT_EQ(DoubleBits(per), DoubleBits(full.value()))
          << "n=" << n << " b=" << b << " rate=" << dev.rate;
    } else {
      ++infeasible;
      ASSERT_TRUE(std::isnan(per)) << "n=" << n << " b=" << b;
    }

    const double total = model::ProbeTheorem1Total(n, b, dev.rate,
                                                   dev.latency);
    auto full_total = model::TotalBufferSize(n, b, dev);
    if (full_total.ok()) {
      ASSERT_EQ(DoubleBits(total), DoubleBits(full_total.value()));
    } else {
      ASSERT_TRUE(std::isnan(total));
    }
  }
  // The random ranges must actually exercise both outcomes.
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 1000);
}

TEST(ProbeKernelTest, CacheSizingMatchesFullSolverBitExactly) {
  Rng rng(202);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::int64_t n = rng.NextInt(-1, 150);
    const std::int64_t k = rng.NextInt(0, 8);
    const BytesPerSecond b = rng.NextDouble() * 2 * kMBps;
    model::DeviceProfile mems;
    mems.rate = rng.NextDouble() * 80 * kMBps;
    mems.latency = rng.NextDouble() * 2 * kMillisecond;
    const auto policy = rng.NextInt(0, 1) == 0
                            ? model::CachePolicy::kReplicated
                            : model::CachePolicy::kStriped;

    const double per = model::ProbeCachePerStream(n, b, k, mems, policy);
    auto full = model::CachePerStreamBuffer(n, b, k, mems, policy);
    if (full.ok()) {
      ++feasible;
      ASSERT_EQ(DoubleBits(per), DoubleBits(full.value()))
          << "n=" << n << " k=" << k << " b=" << b;
    } else {
      ++infeasible;
      ASSERT_TRUE(std::isnan(per)) << "n=" << n << " k=" << k;
    }

    const double total = model::ProbeCacheTotal(n, b, k, mems, policy);
    auto full_total = model::CacheTotalBuffer(n, b, k, mems, policy);
    if (full_total.ok()) {
      ASSERT_EQ(DoubleBits(total), DoubleBits(full_total.value()));
    } else {
      ASSERT_TRUE(std::isnan(total));
    }
  }
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 1000);
}

TEST(ProbeKernelTest, LargestTrueInlineMatchesLargestTrue) {
  Rng rng(303);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::int64_t lo = rng.NextInt(-5, 5);
    const std::int64_t hi = lo + rng.NextInt(-1, 40);
    // Monotone predicate: true up to a random threshold.
    const std::int64_t threshold = rng.NextInt(lo - 2, hi + 2);
    auto pred = [&](std::int64_t x) { return x <= threshold; };

    const std::int64_t inline_best = model::LargestTrueInline(pred, lo, hi);
    auto full = LargestTrue(pred, lo, hi);
    if (full.ok()) {
      ASSERT_EQ(inline_best, full.value())
          << "lo=" << lo << " hi=" << hi << " threshold=" << threshold;
    } else {
      // The std::function version reports "none true" as a Status; the
      // inline one as lo - 1.
      ASSERT_EQ(inline_best, lo - 1)
          << "lo=" << lo << " hi=" << hi << " threshold=" << threshold;
    }
  }
}

/// BreakEvenCostFactor reference: the pre-hoisting algorithm, running
/// the full sensitivity evaluation at every bisection probe.
Result<double> ReferenceBreakEven(const model::SensitivityInputs& inputs,
                                  double bandwidth_factor,
                                  double max_factor) {
  auto margin = [&](double factor) -> double {
    auto r = model::EvaluateSensitivity(inputs, factor, bandwidth_factor);
    if (!r.ok()) return -1.0;
    return r.value().cost_without - r.value().cost_with;
  };
  const double at_min = margin(1.0);
  const double at_max = margin(max_factor);
  if (at_min > 0) return 1.0;
  if (at_max <= 0) {
    return Status::NotFound("never breaks even");
  }
  return Bisect(margin, 1.0, max_factor, {1e-6, 200});
}

TEST(SensitivityIncrementalTest, BreakEvenMatchesFullReEvaluation) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  Rng rng(606);
  int found = 0;
  for (int trial = 0; trial < 40; ++trial) {
    model::SensitivityInputs inputs;
    inputs.disk_latency = model::DiskLatencyFn(disk);
    inputs.bit_rate = (0.5 + rng.NextDouble()) * 100 * kKBps;
    inputs.dram_cap = (1.0 + 4.0 * rng.NextDouble()) * kGB;
    inputs.mems_capacity = (2.0 + 8.0 * rng.NextDouble()) * kGB;
    inputs.dram_per_byte = (5.0 + 30.0 * rng.NextDouble()) / kGB;
    const double bandwidth = 0.5 + 2.0 * rng.NextDouble();
    const double max_factor = 100.0 + 900.0 * rng.NextDouble();

    auto fast = model::BreakEvenCostFactor(inputs, bandwidth, max_factor);
    auto reference = ReferenceBreakEven(inputs, bandwidth, max_factor);
    ASSERT_EQ(fast.ok(), reference.ok()) << "trial " << trial;
    if (fast.ok()) {
      ++found;
      // Identical margins probe for probe, so the bisections converge
      // to the identical double.
      EXPECT_EQ(DoubleBits(fast.value()), DoubleBits(reference.value()))
          << "trial " << trial;
    }
  }
  EXPECT_GT(found, 0);
}

TEST(SensitivityIncrementalTest, InvalidInputsKeepOriginalSemantics) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007()).value();
  model::SensitivityInputs inputs;
  inputs.disk_latency = model::DiskLatencyFn(disk);

  // EvaluateSensitivity validates its own factor arguments...
  EXPECT_EQ(model::EvaluateSensitivity(inputs, 0.0, 2.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model::EvaluateSensitivity(inputs, 2.0, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  model::SensitivityInputs no_latency;
  EXPECT_EQ(model::EvaluateSensitivity(no_latency, 2.0, 2.0).status().code(),
            StatusCode::kInvalidArgument);

  // ...while BreakEvenCostFactor folds an invalid configuration into
  // "never breaks even", exactly as before the hoisting.
  EXPECT_EQ(model::BreakEvenCostFactor(no_latency, 2.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(model::BreakEvenCostFactor(inputs, -1.0).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace memstream
