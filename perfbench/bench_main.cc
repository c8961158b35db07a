// Benchmark binary: runs one workload of the memstream benchmark through
// the library's public entry points and prints one JSON object on
// stdout (see README.md for the schema and for how run.py consumes it).
//
//   memstream_perfbench --workload farm_million|server_modes|admission_churn
//                       --seed N [--threads T] [--scale full|trim]
//                       [--out-dir DIR] [--trace-file spans.csv]
//
// Every input is generated here from --seed; the library only sees the
// generated configs, plans and request traces. All simulated quantities
// are deterministic, so they double as output checks and are compared
// across thread counts by run.py. Host time is read only at the setup
// boundary, and around library calls when --trace-file is given: then a
// span (name, start, end, parent) is kept in memory for every public call
// this program makes, the profiler tree is enabled, and both are reduced
// to per-layer figures at exit.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/profiler.h"
#include "common/random.h"
#include "common/units.h"
#include "device/device_catalog.h"
#include "exp/sweep_runner.h"
#include "farm/placement.h"
#include "farm/router.h"
#include "farm/sharded_farm.h"
#include "fault/fault_plan.h"
#include "model/profiles.h"
#include "model/stream.h"
#include "model/timecycle.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "server/media_server.h"
#include "workload/catalog.h"
#include "workload/popularity.h"
#include "workload/request_gen.h"

namespace {

using namespace memstream;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- tracing --------------------------------------------------------------

/// One timed call into the library. parent indexes the enclosing span
/// (-1 = top level).
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// In-memory span log of the main thread. Spans measured on worker
/// threads are appended after the fact with Add().
class Tracer {
 public:
  std::int32_t Open(const char* name) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, current()});
    open_.push_back(idx);
    return idx;
  }
  void Close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = NowNs();
    open_.pop_back();
  }
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int32_t parent) {
    spans_.push_back({name, start_ns, end_ns, parent});
  }
  std::int32_t current() const { return open_.empty() ? -1 : open_.back(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer makes it free of clock reads.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), idx_(tracer != nullptr ? tracer->Open(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->Close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t idx_;
};

/// Per-name totals of a span log. Self time is a span's duration minus
/// the union of its children's intervals (children of a parallel sweep
/// overlap).
struct SpanTotals {
  std::int64_t count = 0;
  double inclusive_s = 0;
  double self_s = 0;
  std::vector<std::int64_t> durations_ns;
};

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  // (parent, child) pairs grouped by parent.
  std::vector<std::pair<std::int32_t, std::size_t>> edges;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) edges.emplace_back(spans[i].parent, i);
  }
  std::sort(edges.begin(), edges.end());
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<const char*, SpanTotals*>> by_name;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  auto edge = edges.begin();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    iv.clear();
    for (; edge != edges.end() &&
           edge->first == static_cast<std::int32_t>(i);
         ++edge) {
      const Span& c = spans[edge->second];
      iv.emplace_back(std::max(c.start_ns, s.start_ns),
                      std::min(c.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    // Few distinct names: find by literal pointer before the map.
    auto hit = std::find_if(by_name.begin(), by_name.end(),
                            [&s](const auto& e) { return e.first == s.name; });
    if (hit == by_name.end()) {
      by_name.emplace_back(s.name, &totals[s.name]);
      hit = by_name.end() - 1;
    }
    SpanTotals& t = *hit->second;
    ++t.count;
    t.inclusive_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
    t.durations_ns.push_back(dur);
  }
  return totals;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank > 0 ? rank - 1
                                                               : 0)]);
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id,name,start_ns,end_ns,parent\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%zu,%s,%lld,%lld,%d\n", i, spans[i].name,
                 static_cast<long long>(spans[i].start_ns),
                 static_cast<long long>(spans[i].end_ns), spans[i].parent);
  }
  return std::fclose(f) == 0;
}

/// Sums profiler time over every node of the merged tree matching `pred`.
template <typename Pred>
double ProfileSeconds(const std::vector<prof::ProfileNode>& nodes,
                      Pred pred, bool exclusive) {
  double s = 0;
  for (const prof::ProfileNode& n : nodes) {
    if (pred(n.name)) {
      s += static_cast<double>(exclusive ? n.exclusive_ns : n.inclusive_ns) *
           1e-9;
    }
    s += ProfileSeconds(n.children, pred, exclusive);
  }
  return s;
}

// --- run outcome ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int threads = 1;
  bool trim = false;
  std::string out_dir = ".";
  std::string trace_file;
};

/// What one process did. Counts are deterministic given (workload, seed,
/// scale); run.py turns them into rates with the host time it measures.
struct Outcome {
  std::int64_t offered = 0;  ///< operations: offered streams
  std::int64_t failed = 0;   ///< streams of failed runs
  std::vector<std::string> check_failures;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  Bytes analytic_dram = 0;           ///< Theorem 1-4 DRAM of the admitted
  std::int64_t dram_streams = 0;     ///< streams that DRAM covers
  std::int64_t sim_ios = 0;
  std::int64_t admission_decisions = 0;  ///< admit attempts + releases
  double served_stream_s = 0;        ///< availability numerator
  double admitted_stream_s = 0;      ///< availability denominator
  /// Every simulated result, compared verbatim across thread counts.
  std::vector<std::pair<std::string, double>> sim;
  /// Deterministic per-layer counters.
  std::map<std::string, double> layer;
  std::int64_t setup_end_ns = 0;
};

/// Records a failed output check; returns `ok`.
bool Check(Outcome& out, bool ok, const std::string& what) {
  if (!ok) out.check_failures.push_back(what);
  return ok;
}

double Metric(const obs::MetricsRegistry& m, const std::string& name) {
  if (const obs::Counter* c = m.FindCounter(name)) return c->value();
  if (const obs::Gauge* g = m.FindGauge(name)) return g->value();
  return 0;
}

/// The flagship node: a 5-way striped FutureDisk array collapsed to one
/// uniform-rate device (trim: a single disk).
device::DiskParameters FarmNode(bool trim) {
  device::DiskParameters node = device::FutureDisk2007();
  node.inner_rate = node.outer_rate;
  if (!trim) {
    node.name = "FutureNode5x";
    node.outer_rate *= 5;
    node.inner_rate = node.outer_rate;
    node.capacity *= 5;
  }
  return node;
}

// --- farm_million ---------------------------------------------------------

/// The ablation_millionfarm flagship through farm::RunShardedFarm, both
/// placements, reports written like the bench writes them.
Outcome RunFarmMillion(const Options& opt, Tracer* tr) {
  Outcome out;
  farm::ShardedFarmConfig base;
  base.node_disk = FarmNode(opt.trim);
  base.num_shards = opt.trim ? 4 : 128;
  base.num_titles = opt.trim ? 200 : 20000;
  base.zipf_exponent = 0.8;
  base.offered_streams = opt.trim ? 1000 : 1080000;
  base.bit_rate = model::DivX().bit_rate;
  base.dram_budget_per_shard = opt.trim ? 256 * kMB : 48 * kGB;
  base.duration = opt.trim ? 6 : 90;
  base.replication_budget = 0.10;
  base.virtual_nodes = 64;
  base.seed = opt.seed;
  base.threads = opt.threads;
  base.audit = true;
  {
    std::vector<fault::FaultEvent> events;
    const std::int64_t downed = opt.trim ? 1 : 4;
    for (std::int64_t d = 0; d < downed; ++d) {
      fault::FaultEvent fail;
      fail.time = 0.4 * base.duration;
      fail.kind = fault::FaultKind::kMemsDeviceFail;
      fail.device = d;
      events.push_back(fail);
      fault::FaultEvent repair;
      repair.time = 0.75 * base.duration;
      repair.kind = fault::FaultKind::kMemsDeviceRepair;
      repair.device = d;
      events.push_back(repair);
    }
    base.faults = fault::FaultPlan::FromScript(events);
  }
  // Device calibration for the analytic Theorem-1 sizing of each shard.
  auto probe = device::DiskDrive::Create(base.node_disk);
  if (!probe.ok()) {
    Check(out, false, "node disk: " + probe.status().ToString());
    return out;
  }
  const std::pair<farm::PlacementPolicy, std::int64_t> runs[] = {
      {farm::PlacementPolicy::kConsistentHash, 1},
      {farm::PlacementPolicy::kPopularityAware, 4},
  };
  std::filesystem::create_directories(opt.out_dir);

  out.setup_end_ns = NowNs();
  double sweep_s = 0;
  for (const auto& [policy, replicas] : runs) {
    farm::ShardedFarmConfig cfg = base;
    cfg.policy = policy;
    cfg.replicas = replicas;
    obs::MetricsRegistry metrics;
    cfg.metrics = &metrics;
    const std::string tag = farm::PlacementPolicyName(policy);
    out.offered += cfg.offered_streams;

    Result<farm::FarmRunReport> result = [&] {
      SpanScope span(tr, "farm.run");
      return farm::RunShardedFarm(cfg);
    }();
    if (!Check(out, result.ok(),
               tag + ": RunShardedFarm " + result.status().ToString())) {
      out.failed += cfg.offered_streams;
      continue;
    }
    const farm::FarmRunReport& r = result.value();
    sweep_s += r.sweep.wall_seconds;

    const std::size_t failures_before = out.check_failures.size();
    Check(out, r.underflow_events == 0, tag + ": underflows in a sized farm");
    Check(out, r.qos_violations == 0, tag + ": QoS violations");
    Check(out, r.cycle_overruns == 0, tag + ": cycle overruns");
    Check(out, r.availability >= 0 && r.availability <= 1,
          tag + ": availability outside [0, 1]");
    Check(out, r.admitted <= r.offered, tag + ": admitted > offered");
    Check(out, r.admitted + r.rejected == r.offered,
          tag + ": admitted + rejected != offered");
    Check(out, r.peak_dram_per_shard <= cfg.dram_budget_per_shard,
          tag + ": simulated peak DRAM above the shard budget");

    // Theorem-1 DRAM of every shard's resident set at run end.
    std::int64_t residents = 0;
    for (const farm::FarmShardReport& s : r.per_shard) {
      if (s.streams <= 0) continue;
      auto dram = model::TotalBufferSize(
          s.streams, cfg.bit_rate, model::DiskProfile(probe.value(),
                                                      s.streams));
      if (!Check(out, dram.ok(), tag + ": shard sizing " +
                                     dram.status().ToString())) {
        continue;
      }
      out.analytic_dram += dram.value();
      residents += s.streams;
    }
    out.dram_streams += residents;

    {
      SpanScope span(tr, "obs.report_write");
      const obs::FarmBlock block = farm::BuildFarmBlock(r);
      obs::RunReport report;
      report.title = "millionfarm " + r.policy;
      report.AddConfig("policy", r.policy);
      report.AddConfig("shards", std::to_string(r.shards));
      report.AddConfig("offered", std::to_string(r.offered));
      report.AddSimulated("admitted", static_cast<double>(r.admitted));
      report.AddSimulated("availability", r.availability);
      report.farm = &block;
      report.metrics = &metrics;
      const Status st = report.WriteFile(opt.out_dir + "/millionfarm_" +
                                         r.policy + ".report.json");
      Check(out, st.ok(), tag + ": report write " + st.ToString());
    }

    if (out.check_failures.size() != failures_before) {
      out.failed += r.offered;
    }
    out.admitted += r.admitted;
    out.rejected += r.rejected;
    out.sim_ios += r.ios_completed;
    // Router calls the report accounts for: the t=0 wave, one release
    // per shed, one re-admission per readmit.
    out.admission_decisions += r.offered + r.shed_actions + r.readmits;
    const double stream_s = static_cast<double>(r.admitted) * r.duration;
    out.admitted_stream_s += stream_s;
    out.served_stream_s += r.availability * stream_s;

    const std::pair<const char*, double> sim[] = {
        {"admitted", static_cast<double>(r.admitted)},
        {"rejected", static_cast<double>(r.rejected)},
        {"failovers", static_cast<double>(r.failovers)},
        {"shed", static_cast<double>(r.shed_actions)},
        {"readmits", static_cast<double>(r.readmits)},
        {"ios", static_cast<double>(r.ios_completed)},
        {"overruns", static_cast<double>(r.cycle_overruns)},
        {"underflows", static_cast<double>(r.underflow_events)},
        {"violations", static_cast<double>(r.qos_violations)},
        {"availability", r.availability},
        {"peak_dram_per_shard", r.peak_dram_per_shard},
        {"mean_utilization", r.mean_utilization},
    };
    for (const auto& [k, v] : sim) out.sim.emplace_back(tag + "." + k, v);

    out.layer["farm.failovers"] += static_cast<double>(r.failovers);
    out.layer["farm.shed"] += static_cast<double>(r.shed_actions);
    out.layer["farm.readmits"] += static_cast<double>(r.readmits);
    out.layer["server.ios"] += static_cast<double>(r.ios_completed);
    out.layer["server.cycle_overruns"] +=
        static_cast<double>(r.cycle_overruns);
    out.layer["server.underflows"] += static_cast<double>(r.underflow_events);
    out.layer["device.disk_ios"] += static_cast<double>(r.ios_completed);
    out.layer["exp.sweep_tasks"] += static_cast<double>(r.sweep.tasks);
    out.layer["exp.sweep_threads"] = r.sweep.threads;
  }
  out.layer["exp.sweep_wall_s"] = sweep_s;
  return out;
}

// --- server_modes ---------------------------------------------------------

struct ModeRun {
  std::string name;
  server::MediaServerConfig config;
};

device::DiskParameters UniformDisk() {
  device::DiskParameters p = device::FutureDisk2007();
  p.inner_rate = p.outer_rate;
  return p;
}

/// The single-node runs: direct, MEMS buffer (Figs. 4 and 5) and the
/// managed MEMS cache under a seeded device-fault plan, at DVD and HDTV.
/// Each config runs as several independent horizon segments, each with
/// its own fault plan, so the sweep's tasks are many and similar in size
/// and no single fault plan sets the wall.
Result<std::vector<ModeRun>> ServerModeRuns(const Options& opt) {
  const Seconds horizon = opt.trim ? 5 : 200;
  const int segments = opt.trim ? 1 : 6;
  struct Rate {
    const char* tag;
    BytesPerSecond rate;
    std::int64_t direct_n, fig4_n, fig5_n, cache_n;
  };
  // HDTV keeps each config inside its Theorem bounds at 10x the rate.
  const Rate rates[] = {{"dvd", model::Dvd().bit_rate, 60, 10, 45, 60},
                        {"hdtv", model::Hdtv().bit_rate, 20, 2, 6, 20}};
  std::vector<ModeRun> configs;
  for (const Rate& r : rates) {
    server::MediaServerConfig base;
    base.disk = UniformDisk();
    base.bit_rate = r.rate;
    base.sim_duration = horizon;

    server::MediaServerConfig direct = base;
    direct.mode = server::ServerMode::kDirect;
    direct.num_streams = r.direct_n;
    configs.push_back({std::string("direct.") + r.tag, direct});

    server::MediaServerConfig fig4 = base;
    fig4.mode = server::ServerMode::kMemsBuffer;
    fig4.k = 1;
    fig4.num_streams = r.fig4_n;
    configs.push_back({std::string("buffer_k1.") + r.tag, fig4});

    server::MediaServerConfig fig5 = fig4;
    fig5.k = 3;
    fig5.num_streams = r.fig5_n;
    configs.push_back({std::string("buffer_k3.") + r.tag, fig5});

    for (const auto policy :
         {model::CachePolicy::kReplicated, model::CachePolicy::kStriped}) {
      server::MediaServerConfig cache = base;
      cache.mode = server::ServerMode::kMemsCache;
      cache.k = 2;
      cache.cache_policy = policy;
      cache.cached_fraction_of_streams = 0.5;
      cache.num_streams = r.cache_n;
      cache.degrade = true;
      configs.push_back({std::string(policy == model::CachePolicy::kStriped
                                         ? "cache_striped."
                                         : "cache_replicated.") +
                             r.tag,
                         cache});
    }
  }
  std::vector<ModeRun> runs;
  std::uint64_t plan_seed = opt.seed * 1000;
  for (int seg = 0; seg < segments; ++seg) {
    for (const ModeRun& c : configs) {
      ModeRun run = c;
      run.name += "." + std::to_string(seg);
      run.config.seed = opt.seed + static_cast<std::uint64_t>(seg);
      if (run.config.mode == server::ServerMode::kMemsCache) {
        fault::FaultPlanConfig pc;
        pc.horizon = horizon;
        pc.num_devices = run.config.k;
        pc.device_fail_rate = 0.02;
        pc.repair_after = 4;
        auto plan = fault::FaultPlan::Generate(pc, plan_seed++);
        MEMSTREAM_RETURN_IF_ERROR(plan.status());
        run.config.fault_plan = std::move(plan).value();
      }
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

/// One RunMediaServer call, flattened for cross-thread collection.
struct ModeRow {
  bool ok = false;
  std::string error;
  server::MediaServerResult r;
  obs::FaultsBlock faults;
  std::int64_t cycles = 0;
  std::int64_t pipeline_disk_ios = 0;
  std::int64_t pipeline_mems_ios = 0;
  std::int64_t starved_reads = 0;
  double replan_memo_hits = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One sweep task: a RunMediaServer call plus the registry counters the
/// result struct does not carry. Host time is read only when `timed`.
ModeRow RunMode(server::MediaServerConfig config, bool timed) {
  ModeRow row;
  if (timed) row.start_ns = NowNs();
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  // Burst-drop warnings are part of the fault block, not of stderr.
  std::ostringstream warnings;
  config.fault_warn_stream = &warnings;
  auto result = server::RunMediaServer(config);
  if (timed) row.end_ns = NowNs();
  if (!result.ok()) {
    row.error = result.status().ToString();
    return row;
  }
  row.ok = true;
  row.r = result.value();
  if (row.r.faults != nullptr) row.faults = row.r.faults->block();
  const auto disk_cycles = static_cast<std::int64_t>(
      Metric(metrics, "server.pipeline.disk.cycles"));
  row.cycles = static_cast<std::int64_t>(
      Metric(metrics, "server.direct.cycles") +
      Metric(metrics, "server.cache.disk.cycles") +
      Metric(metrics, "server.cache.mems.cycles") + disk_cycles +
      Metric(metrics, "server.pipeline.mems.cycles"));
  // A pipeline disk cycle moves one IO per stream; the rest of its IOs
  // are MEMS IOs.
  if (config.mode == server::ServerMode::kMemsBuffer) {
    row.pipeline_disk_ios = disk_cycles * config.num_streams;
    row.pipeline_mems_ios = row.r.ios_completed - row.pipeline_disk_ios;
  }
  row.starved_reads = static_cast<std::int64_t>(
      Metric(metrics, "server.pipeline.starved_reads"));
  row.replan_memo_hits =
      Metric(metrics, "prof.server.cache.replan_memo_hits");
  return row;
}

Outcome RunServerModes(const Options& opt, Tracer* tr) {
  Outcome out;
  auto built = ServerModeRuns(opt);
  if (!Check(out, built.ok(), "fault plan: " + built.status().ToString())) {
    return out;
  }
  const std::vector<ModeRun>& runs = built.value();
  exp::SweepOptions so;
  so.threads = opt.threads;
  so.base_seed = opt.seed;
  exp::SweepRunner runner(so);
  const bool timed = tr != nullptr;

  out.setup_end_ns = NowNs();
  std::vector<ModeRow> rows;
  std::int32_t sweep_span = -1;
  {
    SpanScope span(tr, "exp.sweep");
    if (tr != nullptr) sweep_span = tr->current();
    rows = runner.Map(static_cast<std::int64_t>(runs.size()),
                      [&runs, timed](exp::TaskContext& ctx) {
                        return RunMode(
                            runs[static_cast<std::size_t>(ctx.index())].config,
                            timed);
                      });
  }
  if (tr != nullptr) {
    for (const ModeRow& row : rows) {
      tr->Add("server.run", row.start_ns, row.end_ns, sweep_span);
    }
  }

  Bytes sim_peak = 0;
  Bytes dram_bound = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ModeRow& row = rows[i];
    const ModeRun& run = runs[i];
    const std::int64_t n = run.config.num_streams;
    const std::string& tag = run.name;
    out.offered += n;
    if (!Check(out, row.ok, tag + ": RunMediaServer " + row.error)) {
      out.failed += n;
      continue;
    }
    const server::MediaServerResult& r = row.r;
    const std::size_t failures_before = out.check_failures.size();
    Check(out, r.qos.underflow_events == 0, tag + ": underflows");
    Check(out, r.qos.violations == 0, tag + ": QoS violations");
    Check(out, r.cycle_overruns == 0, tag + ": cycle overruns");
    // The executable form of Theorems 1-4: a double-buffered schedule
    // holds at most two IOs per stream, 2x the analytic total (the same
    // bound the QoS auditor enforces). A fault re-plan re-sizes the
    // bank mid-run, so faulted runs are held to the auditor's re-armed
    // bounds (violations == 0 above) instead of the fault-free sizing.
    const bool faulted = !run.config.fault_plan.empty();
    const Bytes bound = 2 * r.analytic_dram_total;
    Check(out, faulted || r.sim_peak_dram <= bound,
          tag + ": simulated peak DRAM above the Theorem bound");
    const double stream_s = static_cast<double>(n) * run.config.sim_duration;
    const double lost = row.faults.total_shed_time + r.qos.underflow_time;
    const double availability = 1.0 - lost / stream_s;
    Check(out, availability >= 0 && availability <= 1,
          tag + ": availability outside [0, 1]");
    if (out.check_failures.size() != failures_before) out.failed += n;

    out.admitted += n;
    out.analytic_dram += r.analytic_dram_total;
    out.dram_streams += n;
    if (!faulted) {
      dram_bound += bound;
      sim_peak += r.sim_peak_dram;
    }
    out.sim_ios += r.ios_completed;
    out.admitted_stream_s += stream_s;
    out.served_stream_s += stream_s - lost;

    const std::pair<const char*, double> sim[] = {
        {"analytic_dram", r.analytic_dram_total},
        {"disk_cycle", r.disk_cycle},
        {"mems_cycle", r.mems_cycle},
        {"sim_peak_dram", r.sim_peak_dram},
        {"ios", static_cast<double>(r.ios_completed)},
        {"underflows", static_cast<double>(r.qos.underflow_events)},
        {"violations", static_cast<double>(r.qos.violations)},
        {"overruns", static_cast<double>(r.cycle_overruns)},
        {"disk_utilization", r.disk_utilization},
        {"mems_utilization", r.mems_utilization},
        {"fault_events", static_cast<double>(row.faults.events)},
        {"sheds", static_cast<double>(row.faults.sheds)},
        {"shed_time", row.faults.total_shed_time},
        {"availability", availability},
    };
    for (const auto& [k, v] : sim) out.sim.emplace_back(tag + "." + k, v);

    out.layer["server.ios"] += static_cast<double>(r.ios_completed);
    out.layer["server.cycles"] += static_cast<double>(row.cycles);
    out.layer["server.cycle_overruns"] +=
        static_cast<double>(r.cycle_overruns);
    out.layer["server.underflows"] +=
        static_cast<double>(r.qos.underflow_events);
    out.layer["server.pipeline.starved_reads"] +=
        static_cast<double>(row.starved_reads);
    out.layer["fault.events"] += static_cast<double>(row.faults.events);
    out.layer["fault.replans"] += static_cast<double>(row.faults.replans);
    out.layer["fault.sheds"] += static_cast<double>(row.faults.sheds);
    out.layer["fault.readmits"] += static_cast<double>(row.faults.readmits);
    out.layer["fault.replan_memo_hits"] += row.replan_memo_hits;
    const bool direct = run.config.mode == server::ServerMode::kDirect;
    out.layer["device.disk_ios"] += static_cast<double>(
        direct ? r.ios_completed : row.pipeline_disk_ios);
    out.layer["device.mems_ios"] +=
        static_cast<double>(row.pipeline_mems_ios);
  }
  if (dram_bound > 0) {
    out.layer["model.dram_bound_slack"] = (dram_bound - sim_peak) / dram_bound;
  }
  out.layer["exp.sweep_tasks"] = static_cast<double>(runner.stats().tasks);
  out.layer["exp.sweep_threads"] = runner.stats().threads;
  out.layer["exp.sweep_wall_s"] = runner.stats().wall_seconds;
  return out;
}

// --- admission_churn ------------------------------------------------------

/// Loss-system churn through a 128-shard AdmissionRouter: Poisson
/// arrivals of Zipf titles with mixed Table-1 rates, exponential holding
/// times, each departure a Release. No IO is simulated. Only the rates
/// come from the paper; the mix, holding times, load and DRAM budget are
/// this benchmark's assumptions (README.md, "What admission_churn
/// assumes").
Outcome RunAdmissionChurn(const Options& opt, Tracer* tr) {
  Outcome out;
  const std::int64_t shards = opt.trim ? 8 : 128;
  const std::int64_t titles = opt.trim ? 500 : 20000;
  const double zipf = 0.8;
  const Seconds mean_hold = 1800;
  // Mean concurrency offered per shard (Little's law), set a little past
  // the shard's Theorem-1 capacity so admits, rejections and releases
  // all happen throughout the run.
  const double offered_per_shard = 340;
  const Seconds horizon = opt.trim ? 4 * mean_hold : 12 * mean_hold;
  const double arrival_rate =
      offered_per_shard * static_cast<double>(shards) / mean_hold;

  Rng rng(opt.seed);
  // Rate classes are spread evenly over the popularity ranks (every
  // 20 ranks hold 4 mp3, 10 DivX, 5 DVD and 1 HDTV title), so the offered
  // rate mix does not hinge on which class the seed gives the Zipf head.
  std::vector<std::pair<BytesPerSecond, Seconds>> specs;
  specs.reserve(static_cast<std::size_t>(titles));
  for (std::int64_t t = 0; t < titles; ++t) {
    const std::int64_t slot = t % 20;
    const BytesPerSecond rate = slot < 4    ? model::Mp3().bit_rate
                                : slot < 14 ? model::DivX().bit_rate
                                : slot < 19 ? model::Dvd().bit_rate
                                            : model::Hdtv().bit_rate;
    specs.emplace_back(rate, 3600 + 3600 * rng.NextDouble());
  }
  auto catalog = workload::Catalog::FromSpecs(specs);
  auto sampler = workload::ZipfSampler::Create(titles, zipf);
  if (!Check(out, catalog.ok() && sampler.ok(), "catalog/sampler")) {
    return out;
  }

  farm::PlacementConfig pc;
  pc.num_shards = shards;
  pc.num_titles = titles;
  pc.replicas = 4;
  pc.virtual_nodes = 64;
  pc.zipf_exponent = zipf;
  pc.replication_budget = 0.10;
  pc.seed = opt.seed;
  auto placement = farm::MakePlacement(farm::PlacementPolicy::kPopularityAware,
                                       pc);
  auto node = device::DiskDrive::Create(UniformDisk());
  if (!Check(out, placement.ok() && node.ok(), "placement/node")) return out;
  farm::RouterConfig rc;
  rc.dram_budget_per_shard = 256 * kMB;
  rc.node_rate = node.value().parameters().outer_rate;
  rc.node_latency = model::DiskLatencyFn(node.value());
  auto router = farm::AdmissionRouter::Create(placement.value().get(), rc);
  if (!Check(out, router.ok(), "router: " + router.status().ToString())) {
    return out;
  }

  Result<std::vector<workload::StreamRequest>> requests = [&] {
    SpanScope span(tr, "workload.trace_gen");
    const workload::ZipfSampler& z = sampler.value();
    return workload::GenerateRequests(
        catalog.value(), [&z](Rng& r) { return z.Sample(r); }, arrival_rate,
        horizon, rng);
  }();
  if (!Check(out, requests.ok(),
             "GenerateRequests: " + requests.status().ToString())) {
    return out;
  }
  const std::vector<workload::StreamRequest>& reqs = requests.value();
  std::vector<Seconds> hold(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    hold[i] = std::min(reqs[i].duration, rng.NextExponential(1 / mean_hold));
  }

  struct Departure {
    Seconds time;
    std::int32_t shard;
    BytesPerSecond rate;
    bool operator>(const Departure& o) const { return time > o.time; }
  };
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      live;
  farm::AdmissionRouter& rt = router.value();
  const farm::Placement& pl = *placement.value();
  std::int64_t releases = 0;
  std::int64_t release_errors = 0;
  auto release = [&](const Departure& d) {
    SpanScope span(tr, "farm.release");
    if (!rt.Release(d.shard, d.rate).ok()) ++release_errors;
    ++releases;
  };

  // The analytic DRAM per resident stream is sampled at evenly spaced
  // instants after one mean holding time of warm-up. dram_on() goes
  // through the controllers' solve memo, so the samples' 32 x shards
  // lookups are part of the memo counts.
  const int snapshots = 32;
  Seconds next_snapshot = mean_hold;
  const Seconds snapshot_step = (horizon - mean_hold) / snapshots;
  auto snapshot = [&] {
    for (std::int32_t s = 0; s < shards; ++s) {
      out.dram_streams += rt.admitted_on(s);
      out.analytic_dram += rt.dram_on(s);
    }
  };

  out.setup_end_ns = NowNs();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const workload::StreamRequest& q = reqs[i];
    while (!live.empty() && live.top().time <= q.arrival) {
      release(live.top());
      live.pop();
    }
    if (q.arrival >= next_snapshot) {
      snapshot();
      next_snapshot += snapshot_step;
    }
    const BytesPerSecond rate = catalog.value().title(q.title_id).bit_rate;
    farm::RouteDecision d;
    {
      SpanScope span(tr, "farm.route");
      d = rt.Route(q.title_id, rate);
    }
    if (tr != nullptr) {
      // Route() looks the title up inside the library, out of reach of a
      // span. Traced processes repeat that lookup after it to time it:
      // farm.lookup_s estimates a share of farm.route_s, not extra work
      // of the program.
      SpanScope span(tr, "farm.lookup");
      (void)pl.Lookup(q.title_id);
    }
    if (d.admitted) {
      live.push({q.arrival + hold[i], d.shard, rate});
    } else {
      ++out.rejected;
    }
  }
  while (!live.empty()) {
    release(live.top());
    live.pop();
  }

  out.offered = static_cast<std::int64_t>(reqs.size());
  out.admitted = out.offered - out.rejected;
  out.admission_decisions = rt.attempts() + releases;
  std::int64_t left = 0;
  model::SolveMemoStats memo;
  for (std::int32_t s = 0; s < shards; ++s) {
    left += rt.admitted_on(s);
    const model::SolveMemoStats& m = rt.controller(s).memo_stats();
    memo.hits += m.hits;
    memo.misses += m.misses;
  }
  Check(out, rt.attempts() == rt.admitted() + rt.rejected(),
        "router attempts != admitted + rejected");
  Check(out, rt.attempts() == out.offered, "router attempts != offered");
  Check(out, rt.admitted() == out.admitted,
        "router admitted != replayed admits");
  Check(out, out.admitted <= out.offered, "admitted > offered");
  Check(out, release_errors == 0, "Release returned an error");
  Check(out, releases == out.admitted, "releases != admitted");
  Check(out, left == 0, "streams left on shards after every release");
  Check(out, out.rejected > 0 && out.rejected < out.offered,
        "churn not held near capacity");
  if (!out.check_failures.empty()) out.failed = out.offered;

  const std::pair<const char*, double> sim[] = {
      {"offered", static_cast<double>(out.offered)},
      {"admitted", static_cast<double>(out.admitted)},
      {"rejected", static_cast<double>(out.rejected)},
      {"sampled_residents", static_cast<double>(out.dram_streams)},
      {"sampled_dram", out.analytic_dram},
      {"memo_hits", static_cast<double>(memo.hits)},
      {"memo_misses", static_cast<double>(memo.misses)},
  };
  for (const auto& [k, v] : sim) out.sim.emplace_back(k, v);
  const double lookups = static_cast<double>(memo.hits + memo.misses);
  out.layer["server.admission.memo_hits"] = static_cast<double>(memo.hits);
  out.layer["server.admission.memo_misses"] =
      static_cast<double>(memo.misses);
  out.layer["server.admission.memo_hit_ratio"] =
      lookups > 0 ? static_cast<double>(memo.hits) / lookups : 0;
  out.layer["model.solves"] = static_cast<double>(memo.misses);
  return out;
}

// --- main -----------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--threads") {
      opt.threads = std::atoi(val.c_str());
    } else if (key == "--scale") {
      if (val != "full" && val != "trim") return false;
      opt.trim = val == "trim";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else if (key == "--trace-file") {
      opt.trace_file = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.threads >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::cerr << "usage: memstream_perfbench --workload W --seed N "
                 "[--threads T] [--scale full|trim] [--out-dir D] "
                 "[--trace-file F]\n";
    return 2;
  }
  std::unique_ptr<Tracer> tracer;
  if (!opt.trace_file.empty()) {
    tracer = std::make_unique<Tracer>();
    prof::Profiler::Global().Enable();
  }
  Tracer* tr = tracer.get();

  Outcome out;
  if (opt.workload == "farm_million") {
    out = RunFarmMillion(opt, tr);
  } else if (opt.workload == "server_modes") {
    out = RunServerModes(opt, tr);
  } else if (opt.workload == "admission_churn") {
    out = RunAdmissionChurn(opt, tr);
  } else {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }

  if (tr != nullptr) {
    prof::Profiler::Global().Disable();
    const prof::ProfileSnapshot snap = prof::Profiler::Global().Snapshot();
    auto is = [](const char* want) {
      return [want](const std::string& n) { return n == want; };
    };
    out.layer["sim.run_s"] = ProfileSeconds(snap.roots, is("sim.run"), false);
    out.layer["server.cycle_self_s"] = ProfileSeconds(
        snap.roots,
        [](const std::string& n) {
          return n.rfind("server.", 0) == 0 &&
                 n.find("cycle") != std::string::npos;
        },
        true);
    out.layer["obs.qos_audit_s"] = ProfileSeconds(
        snap.roots,
        [](const std::string& n) {
          return n.rfind("obs.qos.", 0) == 0 &&
                 n.size() > 6 && n.compare(n.size() - 6, 6, "_audit") == 0;
        },
        false);

    std::map<std::string, SpanTotals> spans = SummarizeSpans(tr->spans());
    const std::pair<const char*, const char*> inclusive[] = {
        {"farm.run", "farm.run_s"},
        {"server.run", "server.run_s"},
        {"farm.route", "farm.route_s"},
        {"farm.release", "farm.release_s"},
        {"farm.lookup", "farm.lookup_s"},
        {"obs.report_write", "obs.report_write_s"},
        {"workload.trace_gen", "workload.trace_gen_s"},
    };
    for (const auto& [span, metric] : inclusive) {
      out.layer[metric] = spans[span].inclusive_s;
    }
    // The farm's serial share: everything RunShardedFarm does outside
    // its parallel sweeps.
    if (spans["farm.run"].count > 0) {
      out.layer["farm.orchestrator_s"] =
          spans["farm.run"].inclusive_s - out.layer["exp.sweep_wall_s"];
    }
    out.layer["farm.route_p50_ns"] =
        Percentile(spans["farm.route"].durations_ns, 0.50);
    out.layer["farm.route_p999_ns"] =
        Percentile(spans["farm.route"].durations_ns, 0.999);
    double top = 0;
    for (const Span& s : tr->spans()) {
      if (s.parent < 0) {
        top += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    out.layer["trace.top_spans_s"] = top;
    for (const auto& [name, t] : spans) {
      out.layer["self." + name + "_s"] = t.self_s;
    }
    if (!WriteSpans(tr->spans(), opt.trace_file)) {
      std::cerr << "cannot write " << opt.trace_file << "\n";
      return 1;
    }
  }

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(opt.workload);
  w.Key("seed");
  w.Int(static_cast<std::int64_t>(opt.seed));
  w.Key("threads");
  w.Int(opt.threads);
  w.Key("scale");
  w.String(opt.trim ? "trim" : "full");
  w.Key("setup_end_ns");
  w.Int(out.setup_end_ns);
  w.Key("offered");
  w.Int(out.offered);
  w.Key("failed");
  w.Int(out.failed);
  w.Key("check_failures");
  w.BeginArray();
  for (const std::string& f : out.check_failures) w.String(f);
  w.EndArray();
  w.Key("admitted");
  w.Int(out.admitted);
  w.Key("rejected");
  w.Int(out.rejected);
  w.Key("analytic_dram_bytes");
  w.Number(out.analytic_dram);
  w.Key("dram_streams");
  w.Int(out.dram_streams);
  w.Key("sim_ios");
  w.Int(out.sim_ios);
  w.Key("admission_decisions");
  w.Int(out.admission_decisions);
  w.Key("served_stream_s");
  w.Number(out.served_stream_s);
  w.Key("admitted_stream_s");
  w.Number(out.admitted_stream_s);
  w.Key("sim");
  w.BeginObject();
  for (const auto& [k, v] : out.sim) {
    w.Key(k);
    w.Number(v);
  }
  w.EndObject();
  w.Key("layer");
  w.BeginObject();
  for (const auto& [k, v] : out.layer) {
    w.Key(k);
    w.Number(v);
  }
  w.EndObject();
  w.EndObject();
  std::cout << w.str() << std::endl;
  return 0;
}
