// Workload `leaderboard`: RunLeaderboard with its default config (every
// registry detector plus its resilient: wrapper, six simulator families
// at four series each, seven metrics). The board is the default one for
// every --seed: its own seed stays at the default 42, because the cost
// of a board moves by about a third between board seeds (the families'
// series lengths change), which would swamp every bound. Its recorded
// golden digest of LeaderboardJson makes a fast but wrong change fail.
//
// The traced run drives MakeDetector/Score and the seven scoring
// functions per (detector, family, series) triple itself, with a span
// per call, and must rebuild RunLeaderboard's JSON byte for byte.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "core/leaderboard.h"
#include "detectors/detector.h"
#include "detectors/floss.h"
#include "detectors/merlin.h"
#include "detectors/registry.h"
#include "scoring/affiliation.h"
#include "scoring/confusion.h"
#include "scoring/delay.h"
#include "scoring/nab.h"
#include "scoring/point_adjust.h"
#include "scoring/range_pr.h"
#include "scoring/ucr_score.h"
#include "serving/online_adapters.h"
#include "substrates/matrix_profile.h"
#include "substrates/streaming_mpx.h"
#include "substrates/streaming_profile.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetupReps = 15;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

tsad::LeaderboardConfig BoardConfig(const RunContext& ctx) {
  tsad::LeaderboardConfig config;
  if (ctx.smoke) config.max_series_per_family = 1;
  return config;
}

std::vector<tsad::LeaderboardFamily> AllFamilies() {
  return *tsad::ParseLeaderboardFamilies("all");
}

std::vector<std::vector<tsad::LabeledSeries>> BuildFamilies(
    const tsad::LeaderboardConfig& config, Tracer* tracer) {
  std::vector<std::vector<tsad::LabeledSeries>> out;
  for (tsad::LeaderboardFamily f : AllFamilies()) {
    ScopedSpan span(tracer,
                    "datasets." + std::string(tsad::LeaderboardFamilyName(f)) +
                        ".build",
                    "datasets");
    out.push_back(tsad::BuildLeaderboardFamily(f, config.seed,
                                               config.max_series_per_family));
  }
  return out;
}

std::string MetricKey(const std::string& spec) {
  std::string key = spec;
  std::replace(key.begin(), key.end(), ':', '-');
  return key;
}

std::string ScoreSpanName(const std::string& spec) {
  const bool resilient = spec.rfind("resilient:", 0) == 0;
  return std::string(resilient ? "robustness." : "detectors.") +
         MetricKey(spec) + ".score";
}

void CheckBoard(const RunContext& ctx, const std::string& digest,
                std::size_t triples, std::size_t errors, RunResult* result) {
  if (ctx.smoke) return;
  const std::string key = "board-" + std::to_string(BoardConfig(ctx).seed);
  const auto it = ctx.golden.find(key);
  if (it == ctx.golden.end() || it->second.size() != 3) {
    result->Fail("no golden line for " + key);
    return;
  }
  const std::string got = digest + " " + std::to_string(triples) + " " +
                          std::to_string(errors);
  const std::string want =
      it->second[0] + " " + it->second[1] + " " + it->second[2];
  result->Check(got == want,
                key + ": digest/triples/errors " + got + ", golden " + want);
}

struct BoardOutcome {
  std::string digest;
  std::size_t triples = 0;
  std::size_t errors = 0;
};

BoardOutcome OutcomeOf(const tsad::LeaderboardReport& report) {
  BoardOutcome out;
  Digest digest;
  digest.Str(tsad::LeaderboardJson(report));
  out.digest = digest.hex();
  for (const tsad::LeaderboardCell& cell : report.cells) {
    out.triples += cell.series_scored + cell.detector_errors;
    out.errors += cell.detector_errors;
  }
  return out;
}

RunResult Measure(const RunContext& ctx) {
  RunResult result;
  const tsad::LeaderboardConfig config = BoardConfig(ctx);
  std::vector<double> setup;
  std::size_t series_points = 0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = Now();
    const auto families = BuildFamilies(config, nullptr);
    setup.push_back(Now() - t0);
    series_points = 0;
    for (const auto& family : families) {
      for (const tsad::LabeledSeries& s : family) series_points += s.length();
    }
  }
  const std::size_t detectors = tsad::DefaultLeaderboardDetectors().size();

  std::vector<double> board_seconds;
  BoardOutcome first;
  const double start = Now();
  while (AnotherRep(board_seconds, Now() - start, ctx.seconds, 2, 100)) {
    const double t0 = Now();
    tsad::Result<tsad::LeaderboardReport> report = tsad::RunLeaderboard(config);
    board_seconds.push_back(Now() - t0);
    if (!report.ok()) {
      result.Fail("RunLeaderboard: " + report.status().ToString());
      break;
    }
    const BoardOutcome outcome = OutcomeOf(*report);
    result.attempted += outcome.triples;
    result.failed += outcome.errors;
    if (board_seconds.size() == 1) {
      first = outcome;
      CheckBoard(ctx, first.digest, first.triples, first.errors, &result);
    } else {
      result.Check(outcome.digest == first.digest,
                   "LeaderboardJson changed between boards");
    }
  }
  if (board_seconds.empty()) return result;

  const double wall = Median(board_seconds);
  result.failed_base = "(detector, family, series) triples; failed = detector_errors";
  result.Add("wall_s", wall, "s");
  result.Add("latency_p50_ms", wall * 1e3, "ms");
  result.Add("latency_p99_ms", Quantile(board_seconds, 0.99) * 1e3, "ms");
  result.Add("capacity_pps",
             static_cast<double>(series_points * detectors) / wall, "pts/s");
  result.Add("setup_s", Median(setup), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Note("boards", std::to_string(board_seconds.size()) +
                            " (latency samples are whole boards)");
  result.Note("board_seconds", Join(board_seconds));
  result.Note("triples", std::to_string(first.triples) + ", detector_errors " +
                             std::to_string(first.errors));
  result.Note("json_digest", first.digest);
  return result;
}

// One traced triple: ScoreOneSeries of core/leaderboard.cc, call for
// call, with a span around each layer call.
struct SeriesEval {
  bool ok = false;
  std::vector<double> values;
};

SeriesEval TracedTriple(Tracer* tracer, std::uint64_t parent,
                        std::uint64_t request, const std::string& spec,
                        const tsad::LabeledSeries& series,
                        const std::vector<tsad::LeaderboardMetric>& metrics,
                        std::size_t delay_tolerance) {
  SeriesEval eval;
  tsad::Result<std::vector<double>> scored = tsad::Status::Internal("unset");
  {
    ScopedSpan span(tracer, ScoreSpanName(spec),
                    spec.rfind("resilient:", 0) == 0 ? "robustness" : "detectors",
                    parent, request);
    tsad::Result<std::unique_ptr<tsad::AnomalyDetector>> detector =
        tsad::MakeDetector(spec);
    if (!detector.ok()) return eval;
    scored = (*detector)->Score(series);
  }
  if (!scored.ok()) return eval;

  std::vector<double> scores = std::move(*scored);
  const std::size_t n = series.length();
  std::vector<uint8_t> labels;
  std::vector<tsad::AnomalyRegion> predicted;
  {
    ScopedSpan span(tracer, "core.leaderboard.threshold", "core", parent, request);
    for (double& s : scores) {
      if (std::isnan(s)) s = -std::numeric_limits<double>::infinity();
    }
    labels = series.BinaryLabels();
    std::size_t positives = 0;
    for (uint8_t l : labels) positives += l != 0 ? 1 : 0;
    std::vector<uint8_t> predictions(n, 0);
    if (positives > 0 && n > 0) {
      std::vector<double> sorted = scores;
      std::nth_element(sorted.begin(),
                       sorted.begin() + static_cast<std::ptrdiff_t>(positives - 1),
                       sorted.end(), std::greater<>());
      const double threshold = sorted[positives - 1];
      for (std::size_t i = 0; i < n; ++i) {
        predictions[i] = scores[i] >= threshold ? 1 : 0;
      }
    }
    predicted = tsad::RegionsFromBinary(predictions);
  }
  const std::vector<tsad::AnomalyRegion>& anomalies = series.anomalies();

  for (tsad::LeaderboardMetric metric : metrics) {
    ScopedSpan span(tracer,
                    "scoring." + std::string(tsad::LeaderboardMetricName(metric)),
                    "scoring", parent, request);
    double value = kNan;
    switch (metric) {
      case tsad::LeaderboardMetric::kPointF1: {
        auto best = tsad::BestF1OverThresholds(labels, scores);
        if (best.ok()) value = best->f1;
        break;
      }
      case tsad::LeaderboardMetric::kPointAdjustF1: {
        auto best = tsad::BestPointAdjustedF1(labels, scores);
        if (best.ok()) value = best->f1;
        break;
      }
      case tsad::LeaderboardMetric::kRangePrF1:
        value = tsad::ComputeRangePr(anomalies, predicted).f1;
        break;
      case tsad::LeaderboardMetric::kNab: {
        std::vector<std::size_t> detections;
        for (const tsad::AnomalyRegion& p : predicted) detections.push_back(p.begin);
        auto nab = tsad::ComputeNabScore(anomalies, detections, n);
        if (nab.ok()) value = nab->normalized / 100.0;
        break;
      }
      case tsad::LeaderboardMetric::kUcrSlop: {
        const std::size_t peak =
            tsad::PredictLocation(scores, series.train_length());
        value = 0.0;
        if (peak != tsad::kNoPrediction) {
          for (const tsad::AnomalyRegion& a : anomalies) {
            if (tsad::UcrCorrect(a, peak)) {
              value = 1.0;
              break;
            }
          }
        }
        break;
      }
      case tsad::LeaderboardMetric::kAffiliationF1: {
        auto aff = tsad::ComputeAffiliation(anomalies, predicted, n);
        if (aff.ok()) value = aff->f1;
        break;
      }
      case tsad::LeaderboardMetric::kDelayF1: {
        tsad::DelayConfig delay_config;
        delay_config.tolerance = delay_tolerance;
        auto delay = tsad::ComputeDelayScore(anomalies, predicted, n, delay_config);
        if (delay.ok()) value = delay->f1;
        break;
      }
    }
    eval.values.push_back(value);
  }
  eval.ok = true;
  return eval;
}

// The substrate each detector is built on, called once per series with
// that detector's default parameters.
void TracedSubstrates(Tracer* tracer, std::uint64_t parent,
                      std::uint64_t request, const tsad::LabeledSeries& series,
                      double* observe_seconds) {
  const tsad::Series& x = series.values();
  {
    ScopedSpan span(tracer, "substrates.pan_sweep", "substrates", parent, request);
    (void)tsad::MerlinSweep(x, 48, 96);  // merlin default range
  }
  {
    ScopedSpan span(tracer, "substrates.left_profile", "substrates", parent, request);
    tsad::OnlineLeftProfile profile(128);  // streaming default m
    for (double v : x) (void)profile.Push(v);
  }
  {
    ScopedSpan span(tracer, "substrates.self_join", "substrates", parent, request);
    (void)tsad::ComputeMatrixProfile(x, 128);  // discord default m
  }
  const std::size_t train = series.train_length();
  if (train >= 2 * 128 && train < x.size()) {  // semisup's precondition
    ScopedSpan span(tracer, "substrates.ab_join", "substrates", parent, request);
    const tsad::Series prefix(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(train));
    (void)tsad::ComputeAbJoin(x, prefix, 128);
  }
  const tsad::FlossParams floss = *tsad::ParseFlossSpec("floss");
  {
    ScopedSpan span(tracer, "substrates.streaming_mpx", "substrates", parent, request);
    tsad::StreamingMpxConfig config;
    config.m = floss.m;
    config.buffer_cap = floss.buffer_cap;
    tsad::StreamingMpx ring(config);
    for (double v : x) ring.Push(v);
  }
  tsad::Result<std::unique_ptr<tsad::OnlineDetector>> online =
      tsad::MakeOnlineDetector("floss", series.train_length());
  if (online.ok()) {
    ScopedSpan span(tracer, "detectors.floss.observe", "detectors", parent, request);
    std::vector<tsad::ScoredPoint> sink;
    const double t0 = Now();
    for (double v : x) {
      if (!(*online)->Observe(v, &sink).ok()) break;
      sink.clear();
    }
    *observe_seconds = Now() - t0;
  }
}

RunResult Trace(const RunContext& ctx) {
  RunResult result;
  Tracer* tracer = ctx.tracer;
  const tsad::LeaderboardConfig config = BoardConfig(ctx);

  const double u0 = Now();
  tsad::Result<tsad::LeaderboardReport> reference = tsad::RunLeaderboard(config);
  const double untraced_seconds = Now() - u0;
  if (!reference.ok()) {
    result.Fail("RunLeaderboard: " + reference.status().ToString());
    return result;
  }
  const BoardOutcome ref = OutcomeOf(*reference);
  CheckBoard(ctx, ref.digest, ref.triples, ref.errors, &result);

  // The traced rebuild of the same board.
  const double t0 = Now();
  const auto family_series = BuildFamilies(config, tracer);
  tsad::LeaderboardReport report;
  report.seed = config.seed;
  report.delay_tolerance = config.delay_tolerance;
  report.metrics = *tsad::ParseLeaderboardMetrics("all");
  for (tsad::LeaderboardFamily f : AllFamilies()) {
    report.families.emplace_back(tsad::LeaderboardFamilyName(f));
  }
  report.detectors = tsad::DefaultLeaderboardDetectors();
  struct Triple {
    std::size_t detector, family, series;
  };
  std::vector<Triple> triples;
  for (std::size_t d = 0; d < report.detectors.size(); ++d) {
    for (std::size_t f = 0; f < family_series.size(); ++f) {
      for (std::size_t s = 0; s < family_series[f].size(); ++s) {
        triples.push_back({d, f, s});
      }
    }
  }
  std::vector<SeriesEval> evals(triples.size());
  {
    ScopedSpan sweep(tracer, "common.pool.sweep", "common");
    const std::uint64_t sweep_id = sweep.id();
    const tsad::Status status = tsad::ParallelFor(
        0, triples.size(), [&](std::size_t i) -> tsad::Status {
          ScopedSpan task(tracer, "core.leaderboard.triple", "core", sweep_id, i);
          const Triple& t = triples[i];
          evals[i] = TracedTriple(tracer, task.id(), i,
                                  report.detectors[t.detector],
                                  family_series[t.family][t.series],
                                  report.metrics, config.delay_tolerance);
          return tsad::Status::OK();
        });
    result.Check(status.ok(), "traced sweep failed: " + status.ToString());
  }
  {
    ScopedSpan span(tracer, "core.leaderboard.aggregate", "core");
    const std::size_t num_families = report.families.size();
    report.cells.resize(report.detectors.size() * num_families);
    std::vector<std::vector<double>> sums(report.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      report.cells[c].detector = report.detectors[c / num_families];
      report.cells[c].family = report.families[c % num_families];
      sums[c].assign(report.metrics.size(), 0.0);
    }
    for (std::size_t i = 0; i < triples.size(); ++i) {
      const std::size_t c = triples[i].detector * num_families + triples[i].family;
      if (!evals[i].ok) {
        ++report.cells[c].detector_errors;
        continue;
      }
      ++report.cells[c].series_scored;
      for (std::size_t m = 0; m < report.metrics.size(); ++m) {
        sums[c][m] += evals[i].values[m];
      }
    }
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      tsad::LeaderboardCell& cell = report.cells[c];
      cell.values.assign(report.metrics.size(), kNan);
      if (cell.series_scored > 0) {
        for (std::size_t m = 0; m < report.metrics.size(); ++m) {
          cell.values[m] = sums[c][m] / static_cast<double>(cell.series_scored);
        }
      }
    }
    report.inversions = tsad::ComputeRankInversions(
        report.cells, report.detectors, report.families, report.metrics,
        &report.total_discordant_pairs);
  }
  const double traced_seconds = Now() - t0;
  const BoardOutcome traced = OutcomeOf(report);
  result.Check(traced.digest == ref.digest,
               "traced board differs from RunLeaderboard (digest " +
                   traced.digest + " vs " + ref.digest + ")");
  result.attempted = traced.triples;
  result.failed = traced.errors;
  result.failed_base = "(detector, family, series) triples; failed = detector_errors";

  // Substrate calls, one per series, outside the board timing.
  std::vector<const tsad::LabeledSeries*> all_series;
  std::size_t all_points = 0;
  for (const auto& family : family_series) {
    for (const tsad::LabeledSeries& s : family) {
      all_series.push_back(&s);
      all_points += s.length();
    }
  }
  std::vector<double> observe_seconds(all_series.size(), 0.0);
  {
    ScopedSpan sweep(tracer, "common.pool.substrate_sweep", "common");
    const std::uint64_t sweep_id = sweep.id();
    (void)tsad::ParallelFor(0, all_series.size(), [&](std::size_t i) -> tsad::Status {
      TracedSubstrates(tracer, sweep_id, i, *all_series[i], &observe_seconds[i]);
      return tsad::Status::OK();
    });
  }

  const std::vector<Span> spans = tracer->spans();
  std::map<std::string, double> score_s;
  for (const std::string& spec : report.detectors) {
    score_s[spec] = SumSeconds(spans, ScoreSpanName(spec));
    result.Add("detectors." + MetricKey(spec) + ".score_s", score_s[spec], "s");
  }
  const auto share = [&](const std::string& substrate, const std::string& spec) {
    const double t = SumSeconds(spans, "substrates." + substrate);
    result.Add("substrates." + substrate + "_s", t, "s");
    result.Add("substrates." + substrate + "_share",
               score_s[spec] > 0.0 ? t / score_s[spec] : 0.0, "ratio");
  };
  share("pan_sweep", "merlin");
  share("left_profile", "streaming");
  share("self_join", "discord");
  share("ab_join", "semisup");
  share("streaming_mpx", "floss");
  double observe_total = 0.0;
  for (double s : observe_seconds) observe_total += s;
  result.Add("detectors.floss.observe_ns",
             observe_total / static_cast<double>(all_points) * 1e9, "ns");
  for (tsad::LeaderboardMetric metric : report.metrics) {
    const std::string name = "scoring." + std::string(tsad::LeaderboardMetricName(metric));
    result.Add(name + "_s", SumSeconds(spans, name), "s");
  }
  result.Add("core.leaderboard.threshold_s",
             SumSeconds(spans, "core.leaderboard.threshold"), "s");
  const PoolStats pool = PoolStatsOf(spans, "common.pool.sweep");
  result.Add("common.pool.busy_frac",
             pool.busy_seconds / (pool.sweep_seconds * static_cast<double>(ctx.threads)),
             "ratio");
  result.Add("common.pool.tail_s", pool.tail_seconds, "s");
  double build = 0.0;
  for (const Span& s : spans) {
    if (s.layer == "datasets") build += s.seconds();
  }
  result.Add("datasets.build_s", build, "s");
  result.Add("trace.overhead_frac", traced_seconds / untraced_seconds - 1.0, "ratio");
  result.Note("overhead_base", "traced board rebuild vs RunLeaderboard, " +
                                   std::to_string(untraced_seconds) + " s untraced");
  result.Note("json_digest", traced.digest);
  return result;
}

}  // namespace

std::vector<std::string> LeaderboardGolden() {
  const tsad::LeaderboardConfig config;
  tsad::Result<tsad::LeaderboardReport> report = tsad::RunLeaderboard(config);
  if (!report.ok()) return {};
  const BoardOutcome o = OutcomeOf(*report);
  return {"board-" + std::to_string(config.seed) + " " + o.digest + " " +
          std::to_string(o.triples) + " " + std::to_string(o.errors)};
}

RunResult LeaderboardWorkload(const RunContext& ctx) {
  return ctx.trace ? Trace(ctx) : Measure(ctx);
}

}  // namespace perfbench
