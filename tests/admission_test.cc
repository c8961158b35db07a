#include "server/admission.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "device/device_catalog.h"
#include "model/incremental.h"
#include "model/stream.h"

namespace memstream::server {
namespace {

AdmissionConfig DirectConfig(Bytes dram) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  AdmissionConfig config;
  config.dram_budget = dram;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk.value());
  return config;
}

AdmissionConfig BufferedConfig(Bytes dram, std::int64_t k) {
  AdmissionConfig config = DirectConfig(dram);
  config.buffer_k = k;
  config.mems = model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
  return config;
}

TEST(AdmissionTest, AdmitsUntilDramExhausted) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kMB));
  ASSERT_TRUE(ctrl.ok());
  std::int64_t admitted = 0;
  while (true) {
    auto decision = ctrl.value().TryAdmit(1 * kMBps);
    if (!decision.admitted) {
      EXPECT_EQ(decision.reason, "DRAM budget exceeded");
      break;
    }
    ++admitted;
    ASSERT_LT(admitted, 1000) << "runaway admission";
  }
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(ctrl.value().admitted_count(), admitted);
  EXPECT_LE(ctrl.value().CurrentDramRequirement(), 100 * kMB);
}

TEST(AdmissionTest, BandwidthBoundEnforcedEvenWithHugeDram) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kTB));
  ASSERT_TRUE(ctrl.ok());
  std::int64_t admitted = 0;
  while (ctrl.value().TryAdmit(10 * kMBps).admitted) {
    ++admitted;
    ASSERT_LT(admitted, 100);
  }
  // 300 MB/s / 10 MB/s = 30, strict inequality -> 29.
  EXPECT_EQ(admitted, 29);
}

TEST(AdmissionTest, MemsBufferAdmitsMoreStreams) {
  // With the same small DRAM, the MEMS buffer (Theorem 2 sizing)
  // sustains far more streams — the paper's core value proposition.
  const Bytes dram = 50 * kMB;
  auto direct = AdmissionController::Create(DirectConfig(dram));
  auto buffered = AdmissionController::Create(BufferedConfig(dram, 2));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(buffered.ok());
  auto fill = [](AdmissionController& c) {
    std::int64_t n = 0;
    while (c.TryAdmit(100 * kKBps).admitted) {
      ++n;
      if (n > 100000) break;
    }
    return n;
  };
  const auto n_direct = fill(direct.value());
  const auto n_buffered = fill(buffered.value());
  // Buffered per-stream DRAM is ~2x smaller here (the bank itself
  // eventually saturates, so the advantage is bounded).
  EXPECT_GT(n_buffered, static_cast<std::int64_t>(1.5 * n_direct));
}

TEST(AdmissionTest, ReleaseFreesCapacity) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kMB));
  ASSERT_TRUE(ctrl.ok());
  while (ctrl.value().TryAdmit(1 * kMBps).admitted) {
  }
  const auto full = ctrl.value().admitted_count();
  ASSERT_TRUE(ctrl.value().Release(1 * kMBps).ok());
  EXPECT_EQ(ctrl.value().admitted_count(), full - 1);
  EXPECT_TRUE(ctrl.value().TryAdmit(1 * kMBps).admitted);
}

TEST(AdmissionTest, ReleaseUnknownStreamFails) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kMB));
  ASSERT_TRUE(ctrl.ok());
  EXPECT_EQ(ctrl.value().Release(5 * kMBps).code(), StatusCode::kNotFound);
}

TEST(AdmissionTest, RejectionLeavesStateUnchanged) {
  auto ctrl = AdmissionController::Create(DirectConfig(10 * kKB));
  ASSERT_TRUE(ctrl.ok());
  // One 10 MB/s stream needs ~88 KB of buffer, far over a 10 KB budget.
  auto decision = ctrl.value().TryAdmit(10 * kMBps);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(ctrl.value().admitted_count(), 0);
  EXPECT_DOUBLE_EQ(ctrl.value().CurrentDramRequirement(), 0.0);
}

TEST(AdmissionTest, InvalidBitRateRejected) {
  auto ctrl = AdmissionController::Create(DirectConfig(1 * kGB));
  ASSERT_TRUE(ctrl.ok());
  EXPECT_FALSE(ctrl.value().TryAdmit(0).admitted);
  EXPECT_FALSE(ctrl.value().TryAdmit(-5).admitted);
}

TEST(AdmissionTest, CreateValidatesConfig) {
  AdmissionConfig config;  // no latency function
  config.dram_budget = 1 * kGB;
  EXPECT_FALSE(AdmissionController::Create(config).ok());
  AdmissionConfig bad_buffer = DirectConfig(1 * kGB);
  bad_buffer.buffer_k = 2;  // but no mems profile
  EXPECT_FALSE(AdmissionController::Create(bad_buffer).ok());
}

TEST(AdmissionTest, CreateRejectsNonFiniteBudgetAndRate) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, 0.0, -1.0}) {
    AdmissionConfig budget = DirectConfig(1 * kGB);
    budget.dram_budget = bad;
    EXPECT_FALSE(AdmissionController::Create(budget).ok())
        << "dram_budget=" << bad;
    AdmissionConfig rate = DirectConfig(1 * kGB);
    rate.disk_rate = bad;
    EXPECT_FALSE(AdmissionController::Create(rate).ok())
        << "disk_rate=" << bad;
  }
  EXPECT_TRUE(AdmissionController::Create(DirectConfig(1 * kGB)).ok());
}

// Admission state is a pure function of the admitted multiset: after any
// admit/release churn, a controller decides exactly like a fresh one that
// admitted only the survivors. The controller re-sums its per-rate-class
// counts in rate order, so the comparison is bit-exact for any rates;
// the mix adds non-integral rates to the Table-1 ones, whose running sum
// would round differently depending on the admit/release order.
TEST(AdmissionTest, ChurnedControllerMatchesFreshOneOverSurvivors) {
  for (const std::int64_t buffer_k : {0, 2}) {
    const AdmissionConfig config = buffer_k == 0
                                       ? DirectConfig(2 * kGB)
                                       : BufferedConfig(2 * kGB, buffer_k);
    auto churned = AdmissionController::Create(config);
    ASSERT_TRUE(churned.ok());

    std::vector<BytesPerSecond> rates;
    for (const auto& c : model::PaperStreamClasses()) {
      rates.push_back(c.bit_rate);
      rates.push_back(c.bit_rate / 3);
      rates.push_back(c.bit_rate * 0.7 + 0.1);
    }
    Rng rng(404 + static_cast<std::uint64_t>(buffer_k));
    std::vector<BytesPerSecond> live;
    std::int64_t rejected = 0;
    for (int step = 0; step < 4000; ++step) {
      if (live.empty() || rng.NextInt(0, 2) != 0) {
        const BytesPerSecond r = rates[static_cast<std::size_t>(
            rng.NextInt(0, static_cast<std::int64_t>(rates.size()) - 1))];
        if (churned.value().TryAdmit(r).admitted) {
          live.push_back(r);
        } else {
          ++rejected;
        }
      } else {
        const auto victim = static_cast<std::size_t>(rng.NextInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_TRUE(churned.value().Release(live[victim]).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    // The churn must reach capacity, or rejections go untested.
    ASSERT_GT(rejected, 0) << "buffer_k=" << buffer_k;
    ASSERT_FALSE(live.empty());

    auto fresh = AdmissionController::Create(config);
    ASSERT_TRUE(fresh.ok());
    for (const BytesPerSecond r : live) {
      ASSERT_TRUE(fresh.value().TryAdmit(r).admitted);
    }
    ASSERT_EQ(churned.value().admitted_count(), fresh.value().admitted_count());
    EXPECT_EQ(model::DoubleBits(churned.value().total_bit_rate()),
              model::DoubleBits(fresh.value().total_bit_rate()));
    EXPECT_EQ(model::DoubleBits(churned.value().CurrentDramRequirement()),
              model::DoubleBits(fresh.value().CurrentDramRequirement()));

    // Offer every rate to copies of both: identical decisions, bit for bit.
    for (const BytesPerSecond r : rates) {
      AdmissionController a = churned.value();
      AdmissionController b = fresh.value();
      const AdmissionDecision da = a.TryAdmit(r);
      const AdmissionDecision db = b.TryAdmit(r);
      EXPECT_EQ(da.admitted, db.admitted) << "rate=" << r;
      EXPECT_EQ(da.streams_after, db.streams_after) << "rate=" << r;
      EXPECT_EQ(model::DoubleBits(da.dram_required),
                model::DoubleBits(db.dram_required))
          << "rate=" << r;
      EXPECT_EQ(da.reason, db.reason) << "rate=" << r;
      EXPECT_EQ(model::DoubleBits(a.CurrentDramRequirement()),
                model::DoubleBits(b.CurrentDramRequirement()))
          << "rate=" << r;
    }
  }
}

}  // namespace
}  // namespace memstream::server
