// Stream lifecycle journal: an allocation-free, bounded per-stream event
// record tracking every stream's journey through the server — admitted →
// playing → degraded → shed → re-admitted → departed — together with its
// cumulative IO/byte counts, underflow tally, buffer-occupancy
// distribution, and measured headroom against the Theorem-1/2 DRAM
// envelope it was admitted under.
//
// The paper's guarantees are *per-stream* promises (no starvation,
// bounded DRAM per admitted stream); aggregate counters cannot show
// which stream was shed or how close an individual buffer sailed to its
// bound. The journal is the stream-granular complement to the aggregate
// QoS auditor, in the spirit of puffer's per-client monitoring.
//
// Design rules (the PR 1/2 telemetry contracts):
//  - Registration (EnsureStream) is a cold-path operation that allocates
//    the per-stream slot: a fixed event buffer and a fixed-bucket
//    occupancy histogram. All hot-path calls (RecordIo, RecordUnderflows,
//    the Mark* transitions) touch only preallocated storage — the
//    cycle_alloc_test proves a journal-wired server's steady-state cycle
//    performs zero heap allocations.
//  - Servers reach the journal through their obs::ServerProbe, which
//    resolves every stream's slot once at registration.
//  - Per-stream event storage is bounded (StreamJournalOptions); once a
//    stream's buffer fills, later events are counted in events_dropped
//    but the first `events_per_stream` transitions — the interesting
//    early lifecycle — are preserved verbatim.
//
// Exports: a "streams" block in RunReport (schema v4), per-stream
// Chrome-trace lifecycle tracks (ChromeTraceExporter), and stream.*
// summary metrics (PublishSummary).

#ifndef MEMSTREAM_OBS_STREAM_JOURNAL_H_
#define MEMSTREAM_OBS_STREAM_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace memstream::obs {

/// Lifecycle phase of one journaled stream.
enum class StreamPhase : std::uint8_t {
  kAdmitted,  ///< registered; no data delivered yet
  kPlaying,   ///< first IO landed; in steady service
  kDegraded,  ///< still served, but off its healthy plan (disk fallback,
              ///< reshaped cycle)
  kShed,      ///< dropped by the degradation manager; no service
  kDeparted,  ///< run over (or stream released)
};

const char* StreamPhaseName(StreamPhase phase);

/// Journal event kinds. kReadmitted returns a shed stream to kPlaying.
enum class StreamEventKind : std::uint8_t {
  kAdmitted,
  kPlaying,
  kDegraded,
  kShed,
  kReadmitted,
  kDeparted,
};

const char* StreamEventKindName(StreamEventKind kind);

/// One recorded lifecycle transition.
struct StreamEvent {
  double t = 0;
  StreamEventKind kind = StreamEventKind::kAdmitted;
  /// Kind-specific annotation: for kDegraded 0 = reshaped cycle,
  /// 1 = disk fallback; otherwise 0.
  double detail = 0;
};

struct StreamJournalOptions {
  /// Lifecycle events retained per stream (>= 2). Later events only
  /// count in events_dropped.
  std::size_t events_per_stream = 16;
  /// Buckets of the per-stream occupancy histogram.
  std::size_t occupancy_buckets = 32;
};

/// Everything the journal knows about one stream. Fields are cumulative
/// over the run; `occupancy` holds the per-deposit DRAM level samples.
struct StreamJournalEntry {
  std::int64_t stream_id = -1;
  double bit_rate = 0;          ///< bytes/second
  Bytes envelope_bytes = 0;     ///< Theorem-1/2 per-stream DRAM bound
  StreamPhase phase = StreamPhase::kAdmitted;
  std::int64_t ios = 0;
  Bytes bytes = 0;
  std::int64_t underflows = 0;  ///< cumulative underflow events
  std::int64_t sheds = 0;
  std::int64_t readmits = 0;
  std::int64_t degrades = 0;
  Bytes peak_level_bytes = 0;
  Histogram occupancy;          ///< DRAM level at each deposit
  std::vector<StreamEvent> events;  ///< first N transitions, time order
  std::int64_t events_dropped = 0;

  StreamJournalEntry(std::int64_t id, double rate, Bytes envelope,
                     const StreamJournalOptions& options);

  /// 1 - peak/envelope: how much of the admitted DRAM envelope was never
  /// used. Negative = the envelope was breached (an audit-grade signal).
  /// 1 when the envelope is unknown (0) and nothing was measured.
  double headroom() const {
    if (envelope_bytes <= 0) return peak_level_bytes > 0 ? 0.0 : 1.0;
    return 1.0 - peak_level_bytes / envelope_bytes;
  }
};

/// Aggregate outcome counts across the journal (the RunReport summary
/// and the `stream.*` metrics).
struct StreamJournalSummary {
  std::int64_t count = 0;
  std::int64_t departed = 0;
  std::int64_t shed = 0;        ///< streams shed at least once
  std::int64_t still_shed = 0;  ///< phase == kShed at the end
  std::int64_t readmitted = 0;  ///< streams re-admitted at least once
  std::int64_t degraded = 0;    ///< streams degraded at least once
  std::int64_t underflow_streams = 0;  ///< streams with >= 1 underflow
  std::int64_t total_ios = 0;
  std::int64_t total_underflows = 0;
  std::int64_t events_dropped = 0;
  double min_headroom = 1.0;    ///< tightest stream vs. its envelope
};

/// Owner of all per-stream journal slots for one run (or one farm of
/// runs — stream ids must then be globally unique). Not synchronized:
/// feed it from one simulation thread.
class StreamJournal {
 public:
  explicit StreamJournal(StreamJournalOptions options = {});
  StreamJournal(const StreamJournal&) = delete;
  StreamJournal& operator=(const StreamJournal&) = delete;

  /// Registers `stream_id` (cold path; allocates the slot) and records
  /// the kAdmitted event at `t`. Re-registering an existing id returns
  /// the existing slot unchanged — the facade may pre-register with a
  /// precise envelope before the server self-registers.
  std::size_t EnsureStream(std::int64_t stream_id, double bit_rate,
                           Bytes envelope_bytes, double t);

  /// Dense slot of `stream_id`, or -1 when never registered.
  std::ptrdiff_t SlotOf(std::int64_t stream_id) const;

  // --- hot path (allocation-free) ---

  /// One IO of `bytes` landed for the stream at `t`, leaving its DRAM
  /// buffer at `level`. The first IO moves kAdmitted -> kPlaying.
  void RecordIo(std::size_t slot, double t, Bytes bytes, Bytes level);

  /// Folds a whole execution slice (e.g. one farm epoch) into the
  /// stream in one call: `ios` IOs moving `bytes` total with the DRAM
  /// buffer peaking at `peak_level`. The occupancy histogram observes
  /// the peak once. The first non-empty summary moves kAdmitted ->
  /// kPlaying, like RecordIo.
  void RecordIoSummary(std::size_t slot, double t, std::int64_t ios,
                       Bytes bytes, Bytes peak_level);

  /// `count` new underflow events were observed for the stream.
  void RecordUnderflows(std::size_t slot, double t, std::int64_t count);

  /// The stream left its healthy plan but is still served. `detail`:
  /// 0 = reshaped cycle, 1 = disk fallback.
  void MarkDegraded(std::size_t slot, double t, double detail);

  /// The degradation manager dropped the stream from service.
  void MarkShed(std::size_t slot, double t);

  /// A shed stream rejoined service (back to kPlaying).
  void MarkReadmitted(std::size_t slot, double t);

  /// The run is over for this stream (any phase; the prior phase stays
  /// visible in the event record).
  void MarkDeparted(std::size_t slot, double t);

  /// Marks every not-yet-departed stream departed at `t`.
  void Finalize(double t);

  // --- reads ---

  std::size_t size() const { return entries_.size(); }
  const StreamJournalEntry& entry(std::size_t slot) const {
    return entries_[slot];
  }

  StreamJournalSummary Summarize() const;

  /// Publishes the summary as `stream.*` gauges (count, shed, readmitted,
  /// degraded, underflow_streams, min_headroom, events_dropped, ...).
  void PublishSummary(MetricsRegistry* metrics) const;

 private:
  void Append(StreamJournalEntry& e, double t, StreamEventKind kind,
              double detail);

  StreamJournalOptions options_;
  std::deque<StreamJournalEntry> entries_;  ///< deque: stable addresses
  std::unordered_map<std::int64_t, std::size_t> slot_of_;
};

}  // namespace memstream::obs

#endif  // MEMSTREAM_OBS_STREAM_JOURNAL_H_
