// Workload `table1`: the paper's Table 1 brute force. AnalyzeTriviality
// with the default search space runs over K simulated Yahoo archives
// of 367 series each, one call (one request) per benchmark (A1..A4) of
// each archive, so a run has over 1000 latency samples. Archives are
// drawn by seed from a fixed pool of kArchivePool generator seeds, so
// every archive has a recorded golden solved count and solution digest.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/triviality.h"
#include "datasets/yahoo.h"

namespace perfbench {
namespace {

constexpr std::size_t kArchivePool = 256;
constexpr std::size_t kArchives = 32;
constexpr std::size_t kSetupReps = 3;

tsad::YahooConfig ArchiveConfig(std::size_t index, bool smoke) {
  tsad::YahooConfig config;
  config.seed = 1000 + index;
  if (smoke) {
    config.a1_count = config.a2_count = config.a3_count = config.a4_count = 6;
  }
  return config;
}

void HashSolution(const tsad::TrivialitySolution& s, Digest* digest) {
  digest->U64(s.solved ? 1 : 0);
  if (!s.solved) return;
  digest->U64(s.params.use_abs ? 1 : 0);
  digest->U64(s.params.use_movmean ? 1 : 0);
  digest->U64(s.params.k);
  digest->F64(s.params.c);
  digest->F64(s.params.b);
  digest->F64(s.headroom);
}

struct ArchiveOutcome {
  std::size_t solved = 0;
  std::string digest;
};

ArchiveOutcome OutcomeOf(const tsad::TrivialityReport& report) {
  Digest digest;
  for (const tsad::SeriesTriviality& s : report.series) {
    HashSolution(s.solution, &digest);
  }
  return {report.solved, digest.hex()};
}

std::vector<std::size_t> PickArchives(std::uint64_t seed, std::size_t count) {
  std::vector<std::size_t> pool(kArchivePool);
  for (std::size_t i = 0; i < kArchivePool; ++i) pool[i] = i;
  tsad::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.UniformInt(static_cast<int64_t>(i), kArchivePool - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

std::vector<tsad::YahooArchive> BuildArchives(
    const std::vector<std::size_t>& picks, bool smoke, Tracer* tracer) {
  std::vector<tsad::YahooArchive> archives;
  archives.reserve(picks.size());
  for (std::size_t a = 0; a < picks.size(); ++a) {
    ScopedSpan span(tracer, "datasets.yahoo.generate", "datasets", 0, a);
    archives.push_back(tsad::GenerateYahooArchive(ArchiveConfig(picks[a], smoke)));
  }
  return archives;
}

// Compares each archive's outcome with its golden line (full size only).
void CheckGolden(const RunContext& ctx, const std::vector<std::size_t>& picks,
                 const std::vector<ArchiveOutcome>& outcomes,
                 RunResult* result) {
  if (ctx.smoke) return;
  for (std::size_t a = 0; a < picks.size(); ++a) {
    const auto it = ctx.golden.find("archive-" + std::to_string(picks[a]));
    if (it == ctx.golden.end() || it->second.size() != 2) {
      result->Fail("no golden line for archive " + std::to_string(picks[a]));
      continue;
    }
    const std::string got = std::to_string(outcomes[a].solved) + " " +
                            outcomes[a].digest;
    const std::string want = it->second[0] + " " + it->second[1];
    result->Check(got == want, "archive " + std::to_string(picks[a]) +
                                   ": solved/digest " + got + ", golden " +
                                   want);
  }
}

// Untraced measurement: passes over the K archives until the budget.
RunResult Measure(const RunContext& ctx, const std::vector<std::size_t>& picks) {
  RunResult result;
  std::vector<double> setup;
  std::vector<tsad::YahooArchive> archives;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = Now();
    archives = BuildArchives(picks, ctx.smoke, nullptr);
    setup.push_back(Now() - t0);
  }
  std::size_t points = 0, series = 0;
  for (const tsad::YahooArchive& archive : archives) {
    for (const tsad::BenchmarkDataset* set : archive.all()) {
      for (const tsad::LabeledSeries& s : set->series) points += s.length();
      series += set->size();
    }
  }

  std::vector<double> pass_seconds, latencies_ms;
  std::vector<ArchiveOutcome> first;
  const double start = Now();
  while (AnotherRep(pass_seconds, Now() - start, ctx.seconds, 2, 1000)) {
    const double p0 = Now();
    std::vector<ArchiveOutcome> outcomes;
    for (const tsad::YahooArchive& archive : archives) {
      Digest digest;
      std::size_t solved = 0;
      for (const tsad::BenchmarkDataset* set : archive.all()) {
        const double t0 = Now();
        const tsad::TrivialityReport report = tsad::AnalyzeTriviality({set});
        latencies_ms.push_back((Now() - t0) * 1e3);
        for (const tsad::SeriesTriviality& s : report.series) {
          HashSolution(s.solution, &digest);
        }
        solved += report.solved;
        result.attempted += report.total;
      }
      outcomes.push_back({solved, digest.hex()});
    }
    pass_seconds.push_back(Now() - p0);
    if (first.empty()) {
      first = outcomes;
      CheckGolden(ctx, picks, first, &result);
    } else {
      for (std::size_t a = 0; a < outcomes.size(); ++a) {
        result.Check(outcomes[a].digest == first[a].digest,
                     "archive solutions changed between passes");
      }
    }
  }
  std::size_t solved = 0;
  for (const ArchiveOutcome& o : first) solved += o.solved;

  const double wall = Median(pass_seconds);
  result.failed_base = "series analyzed (AnalyzeTriviality cannot fail)";
  result.Add("wall_s", wall, "s");
  result.Add("latency_p50_ms", Quantile(latencies_ms, 0.50), "ms");
  result.Add("latency_p99_ms", Quantile(latencies_ms, 0.99), "ms");
  result.Add("capacity_pps", static_cast<double>(points) / wall, "pts/s");
  result.Add("setup_s", Median(setup), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Note("archives", std::to_string(picks.size()) + " x " +
                              std::to_string(series / picks.size()) +
                              " series, " + std::to_string(points) + " points");
  result.Note("pass_seconds", Join(pass_seconds));
  result.Note("setup_seconds", Join(setup));
  result.Note("latency_samples", std::to_string(latencies_ms.size()) +
                                     " requests, one per benchmark of an archive");
  result.Note("solved", std::to_string(solved) + "/" + std::to_string(series));
  return result;
}

// Traced run: untraced passes, then FindOneLiner's form order driven
// per series through SolveWithForm with a span per call.
RunResult Trace(const RunContext& ctx, const std::vector<std::size_t>& picks) {
  RunResult result;
  Tracer* tracer = ctx.tracer;
  const std::vector<tsad::YahooArchive> archives =
      BuildArchives(picks, ctx.smoke, tracer);

  // Two untraced passes: the first one warms the caches and the heap,
  // the second is the baseline for the tracing overhead.
  std::vector<ArchiveOutcome> untraced;
  std::size_t series_total = 0;
  double untraced_seconds = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    untraced.clear();
    series_total = 0;
    const double u0 = Now();
    for (const tsad::YahooArchive& archive : archives) {
      const tsad::TrivialityReport report = tsad::AnalyzeTriviality(archive.all());
      untraced.push_back(OutcomeOf(report));
      series_total += report.total;
    }
    untraced_seconds = Now() - u0;
  }
  CheckGolden(ctx, picks, untraced, &result);

  static constexpr tsad::OneLinerForm kOrder[] = {
      tsad::OneLinerForm::kEq3, tsad::OneLinerForm::kEq4,
      tsad::OneLinerForm::kEq5, tsad::OneLinerForm::kEq6};
  static const char* kFormSpan[] = {"core.triviality.form3",
                                    "core.triviality.form4",
                                    "core.triviality.form5",
                                    "core.triviality.form6"};
  const double t0 = Now();
  std::size_t solved = 0, request = 0;
  for (std::size_t a = 0; a < archives.size(); ++a) {
    std::vector<const tsad::LabeledSeries*> flat;
    for (const tsad::BenchmarkDataset* set : archives[a].all()) {
      for (const tsad::LabeledSeries& s : set->series) flat.push_back(&s);
    }
    std::vector<tsad::TrivialitySolution> solutions(flat.size());
    {
      ScopedSpan sweep(tracer, "common.pool.sweep", "common", 0, a);
      const std::uint64_t sweep_id = sweep.id();
      const tsad::Status status = tsad::ParallelFor(
          0, flat.size(), [&](std::size_t i) -> tsad::Status {
            ScopedSpan task(tracer, "core.triviality.series", "core", sweep_id,
                            request + i);
            if (flat[i]->length() < 3) return tsad::Status::OK();
            for (std::size_t f = 0; f < 4; ++f) {
              ScopedSpan form(tracer, kFormSpan[f], "core", task.id(),
                              request + i);
              tsad::TrivialitySolution s =
                  tsad::SolveWithForm(*flat[i], kOrder[f]);
              if (s.solved) {
                solutions[i] = s;
                break;
              }
            }
            return tsad::Status::OK();
          });
      result.Check(status.ok(), "traced sweep failed: " + status.ToString());
    }
    request += flat.size();
    Digest digest;
    std::size_t archive_solved = 0;
    for (const tsad::TrivialitySolution& s : solutions) {
      HashSolution(s, &digest);
      archive_solved += s.solved ? 1 : 0;
    }
    result.Check(archive_solved == untraced[a].solved &&
                     digest.hex() == untraced[a].digest,
                 "traced per-form search disagrees with AnalyzeTriviality on "
                 "archive " + std::to_string(picks[a]));
    solved += archive_solved;
  }
  const double traced_seconds = Now() - t0;
  result.attempted = series_total;
  result.failed_base = "series analyzed (AnalyzeTriviality cannot fail)";

  const std::vector<Span> spans = tracer->spans();
  result.Add("core.triviality.busy_s", SumSeconds(spans, "core.triviality.series"), "s");
  for (std::size_t f = 0; f < 4; ++f) {
    result.Add(std::string(kFormSpan[f]) + "_s", SumSeconds(spans, kFormSpan[f]), "s");
  }
  result.Add("core.triviality.solved", static_cast<double>(solved), "count");
  const PoolStats pool = PoolStatsOf(spans, "common.pool.sweep");
  result.Add("common.pool.busy_frac",
             pool.busy_seconds / (pool.sweep_seconds * static_cast<double>(ctx.threads)),
             "ratio");
  result.Add("common.pool.tail_s", pool.tail_seconds, "s");
  result.Add("datasets.build_s", SumSeconds(spans, "datasets.yahoo.generate"), "s");
  result.Add("trace.overhead_frac", traced_seconds / untraced_seconds - 1.0, "ratio");
  result.Note("overhead_base", "traced per-form pass vs AnalyzeTriviality pass, " +
                                   std::to_string(untraced_seconds) + " s untraced");
  return result;
}

}  // namespace

std::vector<std::string> Table1Golden() {
  std::vector<std::string> lines;
  for (std::size_t idx = 0; idx < kArchivePool; ++idx) {
    const tsad::YahooArchive archive =
        tsad::GenerateYahooArchive(ArchiveConfig(idx, false));
    const ArchiveOutcome o = OutcomeOf(tsad::AnalyzeTriviality(archive.all()));
    lines.push_back("archive-" + std::to_string(idx) + " " +
                    std::to_string(o.solved) + " " + o.digest);
  }
  return lines;
}

RunResult Table1Workload(const RunContext& ctx) {
  const std::vector<std::size_t> picks =
      PickArchives(ctx.seed, ctx.smoke ? 2 : kArchives);
  return ctx.trace ? Trace(ctx, picks) : Measure(ctx, picks);
}

}  // namespace perfbench
