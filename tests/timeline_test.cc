#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "obs/server_probe.h"

namespace memstream::obs {
namespace {

TEST(TimelineSeriesTest, RecordsEverySampleAtStrideOne) {
  TimelineSeries series("s", "bytes", 16);
  for (int i = 0; i < 10; ++i) {
    series.Record(i * 0.1, static_cast<double>(i));
  }
  EXPECT_EQ(series.stride(), 1u);
  EXPECT_EQ(series.samples_seen(), 10u);
  ASSERT_EQ(series.points().size(), 10u);
  EXPECT_DOUBLE_EQ(series.points()[3].t, 0.3);
  EXPECT_DOUBLE_EQ(series.points()[3].v, 3.0);
}

TEST(TimelineSeriesTest, OverflowDecimatesInPlaceAndDoublesStride) {
  TimelineSeries series("s", "", 8);
  for (int i = 0; i < 9; ++i) {
    series.Record(static_cast<double>(i), static_cast<double>(i));
  }
  // The 9th sample triggered a decimation: every other of the first 8
  // survives, then the 9th is appended.
  EXPECT_EQ(series.stride(), 2u);
  ASSERT_EQ(series.points().size(), 5u);
  EXPECT_DOUBLE_EQ(series.points()[0].v, 0.0);
  EXPECT_DOUBLE_EQ(series.points()[1].v, 2.0);
  EXPECT_DOUBLE_EQ(series.points()[2].v, 4.0);
  EXPECT_DOUBLE_EQ(series.points()[3].v, 6.0);
  EXPECT_DOUBLE_EQ(series.points()[4].v, 8.0);
}

TEST(TimelineSeriesTest, StrideGateSkipsBetweenRetainedSamples) {
  TimelineSeries series("s", "", 8);
  for (int i = 0; i < 9; ++i) {
    series.Record(static_cast<double>(i), static_cast<double>(i));
  }
  ASSERT_EQ(series.stride(), 2u);
  // After doubling, only every second offered sample is retained.
  const std::size_t before = series.points().size();
  series.Record(9.0, 9.0);  // seen_ = 10: (10-1) % 2 == 1 -> skipped
  EXPECT_EQ(series.points().size(), before);
  series.Record(10.0, 10.0);  // seen_ = 11: retained
  EXPECT_EQ(series.points().size(), before + 1);
  EXPECT_DOUBLE_EQ(series.points().back().v, 10.0);
}

TEST(TimelineSeriesTest, LongRunStaysWithinCapacity) {
  TimelineSeries series("s", "", 32);
  for (int i = 0; i < 100000; ++i) {
    series.Record(i * 1e-3, static_cast<double>(i));
  }
  EXPECT_LE(series.points().size(), 32u);
  EXPECT_GE(series.points().size(), 8u);  // the shape survives
  EXPECT_EQ(series.samples_seen(), 100000u);
  EXPECT_GT(series.stride(), 1u);
  // Points remain in time order and span the whole run.
  for (std::size_t i = 1; i < series.points().size(); ++i) {
    EXPECT_LT(series.points()[i - 1].t, series.points()[i].t);
  }
  EXPECT_DOUBLE_EQ(series.points().front().t, 0.0);
  EXPECT_GT(series.points().back().t, 50.0);
}

TEST(TimelineRecorderTest, AddSeriesGetsOrCreatesStableHandles) {
  TimelineRecorder recorder;
  TimelineSeries* a = recorder.AddSeries("stream.0.dram_bytes", "bytes");
  TimelineSeries* b = recorder.AddSeries("stream.1.dram_bytes", "bytes");
  EXPECT_NE(a, b);
  EXPECT_EQ(recorder.size(), 2u);
  // Same name: same handle, unit of the first registration wins.
  TimelineSeries* again = recorder.AddSeries("stream.0.dram_bytes", "MB");
  EXPECT_EQ(again, a);
  EXPECT_EQ(a->unit(), "bytes");
  EXPECT_EQ(recorder.size(), 2u);
  // Growth must not invalidate prior handles (deque storage).
  for (int i = 0; i < 100; ++i) {
    recorder.AddSeries("filler." + std::to_string(i));
  }
  a->Record(1.0, 42.0);
  EXPECT_EQ(recorder.series().front().points().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.series().front().points()[0].v, 42.0);
}

TEST(TimelineRecorderTest, TotalPointsSumsAcrossSeries) {
  TimelineRecorder recorder;
  TimelineSeries* a = recorder.AddSeries("a");
  TimelineSeries* b = recorder.AddSeries("b");
  for (int i = 0; i < 3; ++i) a->Record(i, i);
  for (int i = 0; i < 5; ++i) b->Record(i, i);
  EXPECT_EQ(recorder.total_points(), 8u);
}

TEST(TimelineRecorderTest, NullSinkRecordIsANoOp) {
  // The instrumentation contract: hot paths call the server probe, which
  // records nothing when no recorder is attached.
  ServerProbe bare(ServerSinks{});
  bare.Open("server.a", 1);
  bare.AddStream(1, 1e6, 0.0);
  bare.IoCompleted(0, 1.0, 10, 2.0);

  TimelineRecorder recorder;
  ServerSinks sinks;
  sinks.timelines = &recorder;
  ServerProbe probe(sinks);
  probe.Open("server.b", 1);
  probe.AddStream(1, 1e6, 0.0);
  probe.IoCompleted(0, 1.0, 10, 2.0);
  ASSERT_EQ(recorder.size(), 1u);
  const TimelineSeries& series = recorder.series().front();
  EXPECT_EQ(series.name(), "stream.1.dram_bytes");
  ASSERT_EQ(series.points().size(), 1u);
  EXPECT_DOUBLE_EQ(series.points()[0].v, 2.0);
}

TEST(TimelineRecorderTest, OptionsCapacityAppliesToNewSeries) {
  TimelineOptions options;
  options.max_points_per_series = 4;
  TimelineRecorder recorder(options);
  TimelineSeries* s = recorder.AddSeries("s");
  for (int i = 0; i < 64; ++i) s->Record(i, i);
  EXPECT_LE(s->points().size(), 4u);
  EXPECT_EQ(s->samples_seen(), 64u);
}

}  // namespace
}  // namespace memstream::obs
