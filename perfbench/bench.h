// Shared pieces of the tsad performance benchmark: the run context each
// workload receives, the result it fills in, a span tracer, and small
// statistics and digest helpers.
//
// The benchmark records spans only from its own files, around its calls
// into each layer's public functions (common, datasets, substrates,
// detectors, robustness, scoring, core, serving). Spans live in memory
// and are written out when the run ends.

#ifndef TSAD_PERFBENCH_BENCH_H_
#define TSAD_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

/// One closed span: [start, end] in Now() seconds.
struct Span {
  std::string name;   // e.g. "detectors.discord.score"
  std::string layer;  // the module whose public function was called
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // triple / series / tick index
  std::uint64_t thread = 0;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

/// Thread-safe in-memory span store. A disabled tracer records nothing
/// and hands out id 0, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  std::uint64_t NextId() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  void Record(Span span);
  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, recorded at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string layer,
             std::uint64_t parent = 0, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Sum of the durations of spans named `name`.
double SumSeconds(const std::vector<Span>& spans, const std::string& name);

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover, summed by layer.
std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans);

/// Pool statistics of one ParallelFor sweep traced as a span named
/// `sweep` whose direct children are the per-task spans.
struct PoolStats {
  double sweep_seconds = 0.0;  // wall time of the sweeps
  double busy_seconds = 0.0;   // summed task time
  double tail_seconds = 0.0;   // last task start to sweep end, summed
};
PoolStats PoolStatsOf(const std::vector<Span>& spans, const std::string& sweep);

/// Writes spans as JSON lines (one object per span, times in us).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------------------

/// What every workload is handed.
struct RunContext {
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measuring budget
  bool trace = false;
  bool smoke = false;     // tiny sizes, golden checks skipped
  std::size_t threads = 1;
  Tracer* tracer = nullptr;
  /// Golden lines for this workload: key -> fields.
  std::map<std::string, std::vector<std::string>> golden;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What every workload returns.
struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;  // why correct is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failed_base;  // what `attempted` counts
  std::vector<Metric> metrics;
  /// Extra key/value lines for the report (sample counts, counts).
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// The three workloads.
RunResult Table1Workload(const RunContext& ctx);
RunResult LeaderboardWorkload(const RunContext& ctx);
RunResult ServeFleetWorkload(const RunContext& ctx);

/// Golden lines ("<key> <field>...") for every seed in a workload's
/// input pool, at full size: the values the output checks compare to.
std::vector<std::string> Table1Golden();
std::vector<std::string> LeaderboardGolden();
std::vector<std::string> ServeFleetGolden();

// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// "1.23 4.56 ..." with four significant digits, for report notes.
std::string Join(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// 64-bit FNV-1a, incrementally.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n);
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// True while another repetition still fits: fewer than `min_reps`
/// done, or the next one (estimated at the median so far) ends within
/// the budget. Never more than `max_reps`.
bool AnotherRep(const std::vector<double>& rep_seconds, double elapsed,
                double budget, std::size_t min_reps, std::size_t max_reps);

}  // namespace perfbench

#endif  // TSAD_PERFBENCH_BENCH_H_
