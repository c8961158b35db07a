// Unit tests of the online SLO / error-budget monitor: attainment and
// budget arithmetic, the rolling burn-rate window, exhaustion and the
// degraded-health path, the get-or-create monitor, and the JSON and
// gauge exports.

#include "obs/slo.h"

#include <gtest/gtest.h>

#include "obs/json_parser.h"
#include "obs/metrics.h"

namespace memstream::obs {
namespace {

SloSpec Spec(const std::string& name, double objective,
             double window = 60.0) {
  SloSpec spec;
  spec.name = name;
  spec.objective = objective;
  spec.window_seconds = window;
  return spec;
}

TEST(SloTest, FreshSloIsPerfect) {
  Slo slo(Spec("t", 0.999));
  EXPECT_DOUBLE_EQ(slo.attainment(), 1.0);
  EXPECT_DOUBLE_EQ(slo.budget_remaining(), 1.0);
  EXPECT_DOUBLE_EQ(slo.burn_rate(), 0.0);
  EXPECT_FALSE(slo.exhausted());
}

TEST(SloTest, AttainmentAndBudgetArithmetic) {
  // Objective 0.99 -> allowed error rate 0.01. 995 good + 5 bad =
  // error rate 0.005 = half the allowance.
  Slo slo(Spec("t", 0.99));
  slo.Record(1.0, 995, 5);
  EXPECT_DOUBLE_EQ(slo.attainment(), 0.995);
  EXPECT_NEAR(slo.budget_remaining(), 0.5, 1e-9);
  EXPECT_FALSE(slo.exhausted());
  EXPECT_EQ(slo.good(), 995);
  EXPECT_EQ(slo.bad(), 5);
}

TEST(SloTest, ExhaustionWhenErrorRateMeetsAllowance) {
  Slo slo(Spec("t", 0.99));
  slo.Record(1.0, 98, 2);  // double the allowed rate
  EXPECT_TRUE(slo.exhausted());
  EXPECT_LT(slo.budget_remaining(), 0.0);
  Slo under(Spec("t", 0.99));
  under.Record(1.0, 998, 2);  // a fifth of the allowance: budget left
  EXPECT_FALSE(under.exhausted());
  EXPECT_GT(under.budget_remaining(), 0.0);
}

TEST(SloTest, BurnRateUsesOnlyTheRecentWindow) {
  // 32-bucket ring over 32s: 1s per bucket. A bad burst at t=0 must age
  // out of the burn rate once recording advances a full window past it,
  // while the lifetime budget stays spent.
  Slo slo(Spec("t", 0.99, 32.0));
  slo.Record(0.0, 0, 10);
  EXPECT_GT(slo.burn_rate(), 1.0);
  for (int t = 1; t <= 40; ++t) {
    slo.Record(static_cast<double>(t), 10, 0);
  }
  EXPECT_DOUBLE_EQ(slo.burn_rate(), 0.0);
  EXPECT_LT(slo.budget_remaining(), 1.0);
}

TEST(SloTest, ZeroCountRecordIsIgnored) {
  Slo slo(Spec("t", 0.999));
  slo.Record(1.0, 0, 0);
  EXPECT_EQ(slo.good(), 0);
  EXPECT_EQ(slo.bad(), 0);
}

TEST(SloMonitorTest, AddIsGetOrCreateByName) {
  SloMonitor monitor;
  Slo* a = monitor.Add(Spec("underflow", 0.999));
  Slo* b = monitor.Add(Spec("underflow", 0.5));  // spec unchanged
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a->spec().objective, 0.999);
  EXPECT_EQ(monitor.size(), 1u);
  EXPECT_EQ(monitor.Find("underflow"), a);
  EXPECT_EQ(monitor.Find("absent"), nullptr);
}

TEST(SloMonitorTest, HealthyTurnsFalseWithDetailOnExhaustion) {
  SloMonitor monitor;
  Slo* slo = monitor.Add(StandardUnderflowSlo());
  EXPECT_TRUE(monitor.healthy());
  slo->Record(1.0, 0, 100);
  std::string detail;
  EXPECT_FALSE(monitor.healthy(&detail));
  EXPECT_NE(detail.find("underflow"), std::string::npos) << detail;
  EXPECT_NE(detail.find("exhausted"), std::string::npos) << detail;
}

TEST(SloMonitorTest, StatusJsonIsParseableAndComplete) {
  SloMonitor monitor;
  monitor.Add(StandardUnderflowSlo())->Record(1.0, 99, 1);
  monitor.Add(StandardCycleSlackSlo());
  bool ok = false;
  const JsonValue doc = ParseJson(monitor.StatusJson(), &ok);
  ASSERT_TRUE(ok) << monitor.StatusJson();
  ASSERT_NE(doc.Find("healthy"), nullptr);
  const JsonValue* slos = doc.Find("slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_EQ(slos->array.size(), 2u);
  const JsonValue& u = slos->array[0];
  EXPECT_EQ(u.Str("name"), "underflow");
  EXPECT_DOUBLE_EQ(u.Num("good"), 99);
  EXPECT_DOUBLE_EQ(u.Num("bad"), 1);
  EXPECT_NEAR(u.Num("attainment"), 0.99, 1e-9);
  EXPECT_NE(u.Find("budget_remaining"), nullptr);
  EXPECT_NE(u.Find("burn_rate"), nullptr);
  EXPECT_NE(u.Find("exhausted"), nullptr);
}

TEST(SloMonitorTest, PublishGaugesExportsPerSloTriplet) {
  SloMonitor monitor;
  monitor.Add(StandardUnderflowSlo())->Record(1.0, 999, 1);
  MetricsRegistry metrics;
  monitor.PublishGauges(&metrics);
  EXPECT_NEAR(metrics.gauge("slo.underflow.attainment")->value(), 0.999,
              1e-9);
  EXPECT_NE(metrics.gauge("slo.underflow.budget_remaining"), nullptr);
  EXPECT_NE(metrics.gauge("slo.underflow.burn_rate"), nullptr);
  monitor.PublishGauges(nullptr);  // null sink is a no-op
}

TEST(SloMonitorTest, StandardSpecsAreDistinctAndNamed) {
  SloMonitor monitor;
  monitor.Add(StandardUnderflowSlo());
  monitor.Add(StandardCycleSlackSlo());
  monitor.Add(StandardAdmissionLatencySlo());
  monitor.Add(StandardAvailabilitySlo());
  EXPECT_EQ(monitor.size(), 4u);
  EXPECT_GT(monitor.Find("admission_latency")->spec().threshold, 0.0);
  const auto snapshot = monitor.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot[3]->spec().name, "availability");
}

}  // namespace
}  // namespace memstream::obs
