// Workload `serve_fleet`: replay through ShardedEngine of a fleet of
// floss:32:256 streams plus a zscore:w=64 control group. Which stream
// each point goes to is Zipf-skewed, and the memory budget is 60% of
// the all-hot projection, so idle streams keep cycling through cold
// eviction and thaw while hot streams are scored.
//
// Two phases, each on a fresh engine:
//  * open loop: after a warm-up, first closed-loop (the first pump
//    after registration evicts 40% of the fleet at once, a one-off
//    stall) and then at the open-loop rate until the evict/thaw churn
//    settles, points are due at a fixed rate and the engine is pumped
//    every kPumpInterval, micro-batch style: each pump takes every point
//    due by then. Latency runs from a point's due time to the end of the
//    pump that scored it, so a pump that overruns its interval also
//    delays the points that fell due meanwhile. A fixed interval, rather
//    than pumping again as soon as a pump ends, keeps the batch size
//    from feeding back on the host's speed: with back-to-back pumps the
//    median latency moved by half between runs.
//  * closed loop: the whole trace is pushed in fixed ticks, each
//    followed by a pump, as fast as possible. The tick structure fixes
//    the evict/thaw sequence, so those counts repeat exactly.
//
// Fleet seeds come from a pool of kFleetPool, each with golden
// closed-loop evict/thaw counts.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "detectors/floss.h"
#include "detectors/registry.h"
#include "serving/engine.h"
#include "serving/online_adapters.h"
#include "substrates/streaming_mpx.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kFleetPool = 8;
constexpr const char* kFlossSpec = "floss:32:256";
constexpr const char* kControlSpec = "zscore:w=64";
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kTick = 4096;          // closed-loop points per pump
constexpr double kPumpInterval = 0.002;      // open loop: seconds per pump
constexpr std::size_t kVerifyStreams = 8;    // sampled for byte-identity
constexpr std::size_t kVerifyMinPoints = 256;

struct FleetShape {
  std::size_t floss_streams;
  std::size_t trace_points;  // closed-loop trace length
  std::size_t warmup_points; // open loop: trace prefix pushed closed-loop
  double rate;               // open-loop points per second
  double open_warmup_seconds;  // open loop run before measuring
  double open_seconds;       // measured open-loop length of one rep
};

FleetShape ShapeOf(bool smoke) {
  return smoke ? FleetShape{100, 20'000, 2'000, 20'000.0, 0.1, 0.4}
               : FleetShape{2000, 600'000, 100'000, 100'000.0, 0.5, 1.5};
}

struct Fleet {
  std::vector<std::string> ids;
  std::vector<std::string> specs;
  std::vector<std::uint32_t> stream;  // trace: target stream per point
  std::vector<double> value;          // trace: value per point
};

Fleet MakeFleet(std::uint64_t seed, const FleetShape& shape) {
  Fleet fleet;
  const std::size_t controls = shape.floss_streams / 8;
  const std::size_t n = shape.floss_streams + controls;
  for (std::size_t s = 0; s < n; ++s) {
    const bool floss = s < shape.floss_streams;
    fleet.ids.push_back((floss ? "floss-" : "control-") + std::to_string(s));
    fleet.specs.push_back(floss ? kFlossSpec : kControlSpec);
  }
  tsad::Rng rng(0x5eed0000 + seed);
  // Zipf over ranks; ranks are shuffled onto streams so hot streams
  // fall on every shard and in both detector groups.
  std::vector<std::uint32_t> by_rank(n);
  for (std::size_t s = 0; s < n; ++s) by_rank[s] = static_cast<std::uint32_t>(s);
  rng.Shuffle(by_rank);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  std::vector<double> level(n, 0.0), phase(n);
  std::vector<std::size_t> count(n, 0);
  for (std::size_t s = 0; s < n; ++s) phase[s] = rng.Uniform(0.0, 6.283185307179586);
  fleet.stream.resize(shape.trace_points);
  fleet.value.resize(shape.trace_points);
  for (std::size_t i = 0; i < shape.trace_points; ++i) {
    const double u = rng.Uniform(0.0, total);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin()),
        n - 1);
    const std::uint32_t s = by_rank[rank];
    level[s] += rng.Gaussian(0.0, 0.05);
    fleet.stream[i] = s;
    fleet.value[i] = level[s] +
                     std::sin(0.11 * static_cast<double>(count[s]++) + phase[s]) +
                     rng.Gaussian(0.0, 0.2);
  }
  return fleet;
}

std::size_t Footprint(const std::string& spec) {
  tsad::Result<std::unique_ptr<tsad::OnlineDetector>> probe =
      tsad::MakeOnlineDetector(spec, 0);
  if (!probe.ok()) return 0;
  std::vector<tsad::ScoredPoint> sink;
  for (int i = 0; i < 512; ++i) (void)(*probe)->Observe(std::sin(0.1 * i), &sink);
  return (*probe)->MemoryFootprint();
}

// `budget` false lifts the memory budget: the traced run's baseline
// for the share of pump time that eviction and thaw cost.
tsad::ServingConfig EngineConfig(const Fleet& fleet, const FleetShape& shape,
                                 bool budget) {
  tsad::ServingConfig config;
  config.num_shards = 0;  // one per pool thread
  config.queue_capacity = 1 << 20;
  const std::size_t controls = fleet.ids.size() - shape.floss_streams;
  const std::size_t all_hot = Footprint(kFlossSpec) * shape.floss_streams +
                              Footprint(kControlSpec) * controls;
  config.memory_budget_bytes = budget ? all_hot * 6 / 10 : 0;
  return config;
}

// Input generation plus stream registration: the workload's set-up.
struct Setup {
  Fleet fleet;
  std::unique_ptr<tsad::ShardedEngine> engine;
  double seconds = 0.0;
};

Setup MakeSetup(std::uint64_t seed, const FleetShape& shape, Tracer* tracer,
                RunResult* result, bool budget = true) {
  Setup setup;
  const double t0 = Now();
  {
    ScopedSpan span(tracer, "datasets.fleet.generate", "datasets");
    setup.fleet = MakeFleet(seed, shape);
  }
  ScopedSpan span(tracer, "serving.register", "serving");
  setup.engine = std::make_unique<tsad::ShardedEngine>(
      EngineConfig(setup.fleet, shape, budget));
  for (std::size_t s = 0; s < setup.fleet.ids.size(); ++s) {
    const tsad::Status added =
        setup.engine->AddStream(setup.fleet.ids[s], setup.fleet.specs[s], 0);
    result->Check(added.ok(), "AddStream: " + added.ToString());
  }
  setup.seconds = Now() - t0;
  return setup;
}

// What a phase leaves behind for the checks and metrics.
struct PhaseOutcome {
  double seconds = 0.0;       // closed loop: push + pump wall time
  double pump_seconds = 0.0;  // closed loop: pump time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  tsad::ServingStats stats;
  std::uint64_t memory_bytes_peak = 0;
  std::uint64_t cold_bytes_peak = 0;
};

std::uint64_t PushRange(tsad::ShardedEngine* engine, const Fleet& fleet,
                        std::size_t lo, std::size_t hi) {
  std::uint64_t rejected = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (!engine->Push(fleet.ids[fleet.stream[i]], fleet.value[i]).ok()) ++rejected;
  }
  return rejected;
}

// Takes the engine's counters (dropped points count as failed), then
// checks sampled streams' FinishStream output byte for byte against
// batch Score on the same values.
void FinishPhase(Setup* setup, std::size_t points, PhaseOutcome* out,
                 RunResult* result) {
  const Fleet& fleet = setup->fleet;
  out->stats = setup->engine->stats();
  out->failed += out->stats.points_dropped;
  std::vector<std::size_t> per_stream(fleet.ids.size(), 0);
  for (std::size_t i = 0; i < points; ++i) ++per_stream[fleet.stream[i]];
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < fleet.ids.size(); ++s) {
    if (per_stream[s] >= kVerifyMinPoints) candidates.push_back(s);
  }
  const std::size_t stride = std::max<std::size_t>(1, candidates.size() / kVerifyStreams);
  for (std::size_t c = 0; c < candidates.size() && c / stride < kVerifyStreams; c += stride) {
    const std::size_t s = candidates[c];
    tsad::Series values;
    for (std::size_t i = 0; i < points; ++i) {
      if (fleet.stream[i] == s) values.push_back(fleet.value[i]);
    }
    tsad::Result<std::vector<double>> online = setup->engine->FinishStream(fleet.ids[s]);
    tsad::Result<std::unique_ptr<tsad::AnomalyDetector>> batch =
        tsad::MakeDetector(fleet.specs[s]);
    tsad::Result<std::vector<double>> expected =
        batch.ok() ? (*batch)->Score(values, 0)
                   : tsad::Result<std::vector<double>>(batch.status());
    const bool same = online.ok() && expected.ok() &&
                      online->size() == expected->size() &&
                      std::memcmp(online->data(), expected->data(),
                                  online->size() * sizeof(double)) == 0;
    result->Check(same, "stream " + fleet.ids[s] +
                            ": FinishStream differs from batch Score");
  }
}

void TrackPeaks(const tsad::ShardedEngine& engine, PhaseOutcome* out) {
  const tsad::ServingStats stats = engine.stats();
  out->memory_bytes_peak = std::max(out->memory_bytes_peak, stats.memory_bytes);
  out->cold_bytes_peak = std::max(out->cold_bytes_peak, stats.cold_bytes);
}

PhaseOutcome ClosedLoop(Setup* setup, Tracer* tracer, RunResult* result) {
  PhaseOutcome out;
  const std::size_t n = setup->fleet.stream.size();
  const double t0 = Now();
  for (std::size_t lo = 0, tick = 0; lo < n; lo += kTick, ++tick) {
    const std::size_t hi = std::min(n, lo + kTick);
    {
      ScopedSpan span(tracer, "serving.push", "serving", 0, tick);
      out.failed += PushRange(setup->engine.get(), setup->fleet, lo, hi);
    }
    const double pump0 = Now();
    {
      ScopedSpan span(tracer, "serving.pump", "serving", 0, tick);
      result->Check(setup->engine->Pump().ok(), "Pump failed");
    }
    out.pump_seconds += Now() - pump0;
    if (tracer->enabled()) TrackPeaks(*setup->engine, &out);
  }
  out.seconds = Now() - t0;
  out.attempted = n;
  FinishPhase(setup, n, &out, result);
  return out;
}

struct OpenLoopOutcome {
  PhaseOutcome phase;
  std::vector<double> latency_ms;  // one per point
  std::vector<double> pump_ms;     // one per pump
  double late_ms_max = 0.0;        // generator lateness
  std::size_t backlog_max = 0;     // points pushed for one pump
  double push_seconds = 0.0;
};

OpenLoopOutcome OpenLoop(Setup* setup, const FleetShape& shape, Tracer* tracer,
                         RunResult* result) {
  OpenLoopOutcome out;
  const std::size_t first = shape.warmup_points;
  for (std::size_t lo = 0; lo < first; lo += kTick) {
    out.phase.failed += PushRange(setup->engine.get(), setup->fleet, lo,
                                  std::min(first, lo + kTick));
    result->Check(setup->engine->Pump().ok(), "Pump failed");
  }
  const std::size_t measured =
      first + static_cast<std::size_t>(shape.rate * shape.open_warmup_seconds);
  const std::size_t n =
      measured + static_cast<std::size_t>(shape.rate * shape.open_seconds);
  out.latency_ms.reserve(n - measured);
  const double t0 = Now() + 1e-3;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<double>(i - first) / shape.rate;
  };
  std::size_t i = first;
  for (std::uint64_t tick = 1; i < n; ++tick) {
    // Spin rather than sleep until the pump is due: a sleeping loop
    // wakes late, and that lateness would read as latency.
    const double pump_due = t0 + static_cast<double>(tick) * kPumpInterval;
    double now = Now();
    while (now < pump_due) now = Now();
    const std::size_t lo = i;
    while (i < n && due(i) <= now) ++i;
    if (i == lo) continue;
    const bool record = lo >= measured;
    if (record) out.late_ms_max = std::max(out.late_ms_max, (now - pump_due) * 1e3);
    {
      ScopedSpan span(tracer, "serving.push", "serving", 0, tick);
      const double p0 = Now();
      out.phase.failed += PushRange(setup->engine.get(), setup->fleet, lo, i);
      if (record) out.push_seconds += Now() - p0;
    }
    const double pump0 = Now();
    {
      ScopedSpan span(tracer, "serving.pump", "serving", 0, tick);
      result->Check(setup->engine->Pump().ok(), "Pump failed");
    }
    const double end = Now();
    if (!record) continue;
    out.pump_ms.push_back((end - pump0) * 1e3);
    out.backlog_max = std::max(out.backlog_max, i - lo);
    for (std::size_t j = lo; j < i; ++j) out.latency_ms.push_back((end - due(j)) * 1e3);
    if (tracer->enabled()) TrackPeaks(*setup->engine, &out.phase);
  }
  out.phase.attempted = n;
  FinishPhase(setup, n, &out.phase, result);
  return out;
}

void CheckGolden(const RunContext& ctx, const PhaseOutcome& closed,
                 RunResult* result) {
  if (ctx.smoke) return;
  const std::string key = "fleet-" + std::to_string(ctx.seed % kFleetPool);
  const auto it = ctx.golden.find(key);
  if (it == ctx.golden.end() || it->second.size() != 2) {
    result->Fail("no golden line for " + key);
    return;
  }
  const std::string got = std::to_string(closed.stats.cold_evictions) + " " +
                          std::to_string(closed.stats.thaws);
  const std::string want = it->second[0] + " " + it->second[1];
  result->Check(got == want, key + ": evictions/thaws " + got + ", golden " + want);
}

RunResult Measure(const RunContext& ctx) {
  RunResult result;
  const FleetShape shape = ShapeOf(ctx.smoke);
  const std::uint64_t seed = ctx.seed % kFleetPool;
  Tracer off(false);
  std::vector<double> setup_s, p50, p99, capacity, closed_s, lateness;
  std::size_t latency_samples = 0;
  std::uint64_t evictions = 0, thaws = 0;

  // Half the budget for each phase, at least three reps each.
  const double open_start = Now();
  std::vector<double> open_reps;
  while (AnotherRep(open_reps, Now() - open_start, ctx.seconds / 2, 3, 50)) {
    const double r0 = Now();
    Setup setup = MakeSetup(seed, shape, &off, &result);
    setup_s.push_back(setup.seconds);
    const OpenLoopOutcome open = OpenLoop(&setup, shape, &off, &result);
    open_reps.push_back(Now() - r0);
    p50.push_back(Quantile(open.latency_ms, 0.50));
    p99.push_back(Quantile(open.latency_ms, 0.99));
    lateness.push_back(open.late_ms_max);
    latency_samples += open.latency_ms.size();
    result.attempted += open.phase.attempted;
    result.failed += open.phase.failed;
  }
  const double closed_start = Now();
  std::vector<double> closed_reps;
  while (AnotherRep(closed_reps, Now() - closed_start, ctx.seconds / 2, 3, 50)) {
    const double r0 = Now();
    Setup setup = MakeSetup(seed, shape, &off, &result);
    setup_s.push_back(setup.seconds);
    const PhaseOutcome closed = ClosedLoop(&setup, &off, &result);
    closed_reps.push_back(Now() - r0);
    closed_s.push_back(closed.seconds);
    capacity.push_back(static_cast<double>(closed.attempted) / closed.seconds);
    if (closed_reps.size() == 1) {
      evictions = closed.stats.cold_evictions;
      thaws = closed.stats.thaws;
      CheckGolden(ctx, closed, &result);
    } else {
      result.Check(closed.stats.cold_evictions == evictions &&
                       closed.stats.thaws == thaws,
                   "closed-loop evict/thaw counts changed between reps");
    }
    result.attempted += closed.attempted;
    result.failed += closed.failed;
  }

  result.failed_base =
      "points pushed; failed = pushes rejected (shed, denied, failed stream) + points dropped after a stream failed";
  result.Add("wall_s", Median(closed_s), "s");
  result.Add("latency_p50_ms", Median(p50), "ms");
  result.Add("latency_p99_ms", Median(p99), "ms");
  result.Add("capacity_pps", Median(capacity), "pts/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Note("fleet", std::to_string(shape.floss_streams) + " x " + kFlossSpec +
                           " + " + std::to_string(shape.floss_streams / 8) + " x " +
                           kControlSpec + ", budget 60% of all-hot");
  result.Note("open_loop", std::to_string(open_reps.size()) + " reps at " +
                               std::to_string(static_cast<long>(shape.rate)) +
                               " pts/s, " + std::to_string(latency_samples) +
                               " latency samples; p50/p99 are medians of the per-rep values");
  result.Note("generator_late_ms_max", std::to_string(*std::max_element(lateness.begin(), lateness.end())));
  result.Note("closed_loop", std::to_string(closed_reps.size()) + " reps of " +
                                 std::to_string(shape.trace_points) + " points in ticks of " +
                                 std::to_string(kTick));
  result.Note("cold_evictions", std::to_string(evictions));
  result.Note("thaws", std::to_string(thaws));
  result.Note("p50_ms_per_rep", Join(p50));
  result.Note("p99_ms_per_rep", Join(p99));
  result.Note("capacity_per_rep", Join(capacity));
  result.Note("setup_seconds", Join(setup_s));
  return result;
}

// Unit costs of floss streams from standalone adapters fed the same
// values as in the fleet: Observe on the hottest stream, Snapshot and
// build + Restore (what an eviction and a thaw do) averaged over a
// sample of floss streams, since evictions mostly hit the idle tail.
struct FlossUnitCosts {
  double observe_ns = 0.0;
  double snapshot_us = 0.0;
  double restore_us = 0.0;
  double blob_bytes = 0.0;
};

constexpr std::size_t kUnitSample = 64;

FlossUnitCosts MeasureFlossUnit(const Fleet& fleet, std::size_t floss_streams,
                                Tracer* tracer, RunResult* result) {
  FlossUnitCosts costs;
  std::vector<tsad::Series> values(floss_streams);
  for (std::size_t i = 0; i < fleet.stream.size(); ++i) {
    if (fleet.stream[i] < floss_streams) values[fleet.stream[i]].push_back(fleet.value[i]);
  }
  std::size_t hottest = 0;
  for (std::size_t s = 0; s < floss_streams; ++s) {
    if (values[s].size() > values[hottest].size()) hottest = s;
  }
  const auto make = [&]() -> std::unique_ptr<tsad::OnlineDetector> {
    tsad::Result<std::unique_ptr<tsad::OnlineDetector>> adapter =
        tsad::MakeOnlineDetector(kFlossSpec, 0);
    result->Check(adapter.ok(), "MakeOnlineDetector failed");
    return adapter.ok() ? std::move(*adapter) : nullptr;
  };
  const auto feed = [&](tsad::OnlineDetector* adapter, const tsad::Series& xs) {
    std::vector<tsad::ScoredPoint> sink;
    for (double v : xs) {
      result->Check(adapter->Observe(v, &sink).ok(), "floss Observe failed");
      sink.clear();
    }
  };
  {
    std::unique_ptr<tsad::OnlineDetector> adapter = make();
    if (adapter == nullptr) return costs;
    ScopedSpan span(tracer, "detectors.floss.observe", "detectors");
    const double t0 = Now();
    feed(adapter.get(), values[hottest]);
    costs.observe_ns = (Now() - t0) / static_cast<double>(values[hottest].size()) * 1e9;
  }
  const std::size_t stride = std::max<std::size_t>(1, floss_streams / kUnitSample);
  std::size_t sampled = 0;
  for (std::size_t s = 0; s < floss_streams; s += stride, ++sampled) {
    std::unique_ptr<tsad::OnlineDetector> adapter = make();
    if (adapter == nullptr) return costs;
    feed(adapter.get(), values[s]);
    std::string blob;
    {
      ScopedSpan span(tracer, "detectors.floss.snapshot", "detectors", 0, s);
      const double t0 = Now();
      tsad::Result<std::string> snap = adapter->Snapshot();
      costs.snapshot_us += (Now() - t0) * 1e6;
      result->Check(snap.ok(), "floss Snapshot failed");
      if (snap.ok()) blob = std::move(*snap);
    }
    costs.blob_bytes += static_cast<double>(blob.size());
    ScopedSpan span(tracer, "detectors.floss.restore", "detectors", 0, s);
    const double t0 = Now();
    std::unique_ptr<tsad::OnlineDetector> fresh = make();
    result->Check(fresh != nullptr && fresh->Restore(blob).ok(), "floss Restore failed");
    costs.restore_us += (Now() - t0) * 1e6;
  }
  costs.snapshot_us /= static_cast<double>(sampled);
  costs.restore_us /= static_cast<double>(sampled);
  costs.blob_bytes /= static_cast<double>(sampled);

  const tsad::FlossParams params = *tsad::ParseFlossSpec(kFlossSpec);
  tsad::StreamingMpxConfig config;
  config.m = params.m;
  config.buffer_cap = params.buffer_cap;
  ScopedSpan span(tracer, "substrates.streaming_mpx", "substrates");
  tsad::StreamingMpx ring(config);
  for (double v : values[hottest]) ring.Push(v);
  return costs;
}

RunResult Trace(const RunContext& ctx) {
  RunResult result;
  Tracer* tracer = ctx.tracer;
  const FleetShape shape = ShapeOf(ctx.smoke);
  const std::uint64_t seed = ctx.seed % kFleetPool;

  Tracer off(false);
  Setup base_setup = MakeSetup(seed, shape, &off, &result);
  const PhaseOutcome base = ClosedLoop(&base_setup, &off, &result);
  base_setup.engine.reset();
  Setup unbudgeted_setup = MakeSetup(seed, shape, &off, &result, /*budget=*/false);
  const PhaseOutcome unbudgeted = ClosedLoop(&unbudgeted_setup, &off, &result);
  unbudgeted_setup.engine.reset();

  Setup open_setup = MakeSetup(seed, shape, tracer, &result);
  const OpenLoopOutcome open = OpenLoop(&open_setup, shape, tracer, &result);
  open_setup.engine.reset();

  Setup closed_setup = MakeSetup(seed, shape, tracer, &result);
  const PhaseOutcome closed = ClosedLoop(&closed_setup, tracer, &result);
  CheckGolden(ctx, closed, &result);
  result.Check(closed.stats.cold_evictions == base.stats.cold_evictions &&
                   closed.stats.thaws == base.stats.thaws,
               "traced closed loop changed the evict/thaw counts");
  const FlossUnitCosts unit =
      MeasureFlossUnit(closed_setup.fleet, shape.floss_streams, tracer, &result);

  result.attempted = open.phase.attempted + closed.attempted;
  result.failed = open.phase.failed + closed.failed;
  result.failed_base =
      "points pushed; failed = pushes rejected (shed, denied, failed stream) + points dropped after a stream failed";

  const std::vector<Span> spans = tracer->spans();
  result.Add("serving.push_s", open.push_seconds, "s");
  result.Add("serving.pump_ms_p50", Quantile(open.pump_ms, 0.50), "ms");
  result.Add("serving.pump_ms_p99", Quantile(open.pump_ms, 0.99), "ms");
  result.Add("serving.pumps", static_cast<double>(open.pump_ms.size()), "count");
  result.Add("serving.backlog_max", static_cast<double>(open.backlog_max), "count");
  result.Add("serving.generator_late_ms_max", open.late_ms_max, "ms");
  result.Add("serving.cold_evictions", static_cast<double>(closed.stats.cold_evictions), "count");
  result.Add("serving.thaws", static_cast<double>(closed.stats.thaws), "count");
  result.Add("serving.cold_bytes_peak", static_cast<double>(closed.cold_bytes_peak), "B");
  result.Add("serving.memory_bytes_peak", static_cast<double>(closed.memory_bytes_peak), "B");
  result.Add("serving.evict_thaw_share",
             1.0 - unbudgeted.pump_seconds / base.pump_seconds, "ratio");
  const auto sum_stat = [&](std::uint64_t tsad::ServingStats::*field) {
    return static_cast<double>(open.phase.stats.*field + closed.stats.*field);
  };
  result.Add("serving.points_shed", sum_stat(&tsad::ServingStats::points_shed), "count");
  result.Add("serving.points_denied", sum_stat(&tsad::ServingStats::points_denied), "count");
  result.Add("serving.points_dropped", sum_stat(&tsad::ServingStats::points_dropped), "count");
  result.Add("detectors.floss.observe_ns", unit.observe_ns, "ns");
  result.Add("detectors.floss.snapshot_us", unit.snapshot_us, "us");
  result.Add("detectors.floss.restore_us", unit.restore_us, "us");
  result.Add("detectors.floss.blob_bytes", unit.blob_bytes, "B");
  result.Add("substrates.streaming_mpx_s", SumSeconds(spans, "substrates.streaming_mpx"), "s");
  result.Add("datasets.build_s", SumSeconds(spans, "datasets.fleet.generate") / 2.0, "s");
  result.Add("trace.overhead_frac", closed.seconds / base.seconds - 1.0, "ratio");
  result.Note("evict_thaw_share",
              "computed: 1 - closed-loop pump time without a memory budget (" +
                  std::to_string(unbudgeted.pump_seconds) + " s) / with it (" +
                  std::to_string(base.pump_seconds) + " s), both untraced");
  result.Note("overhead_base", "traced closed loop vs untraced closed loop, " +
                                   std::to_string(base.seconds) + " s untraced");
  result.Note("cold_evictions", std::to_string(closed.stats.cold_evictions));
  result.Note("thaws", std::to_string(closed.stats.thaws));
  return result;
}

}  // namespace

std::vector<std::string> ServeFleetGolden() {
  std::vector<std::string> lines;
  Tracer off(false);
  for (std::uint64_t k = 0; k < kFleetPool; ++k) {
    RunResult checks;
    Setup setup = MakeSetup(k, ShapeOf(false), &off, &checks);
    const PhaseOutcome closed = ClosedLoop(&setup, &off, &checks);
    if (!checks.correct) continue;
    lines.push_back("fleet-" + std::to_string(k) + " " +
                    std::to_string(closed.stats.cold_evictions) + " " +
                    std::to_string(closed.stats.thaws));
  }
  return lines;
}

RunResult ServeFleetWorkload(const RunContext& ctx) {
  return ctx.trace ? Trace(ctx) : Measure(ctx);
}

}  // namespace perfbench
