// The tsad benchmark binary, tsad_perfbench. Runs one workload and prints one JSON
// record as its last line: the correctness verdict, the failure count
// with its base, every metric with its unit, the notes, and a stamp of
// the host and build. perfbench/run.py builds this binary and turns the
// record into the benchmark's result line.
//
//   tsad_perfbench --workload table1|leaderboard|serve_fleet --seed N
//                  --seconds S [--trace 0|1] [--threads T] [--smoke]
//                  [--golden FILE] [--out-dir DIR] [--source-sha SHA]
//   tsad_perfbench --record-golden table1|leaderboard|serve_fleet

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/parallel.h"

#ifndef TSAD_PERFBENCH_BUILD_TYPE
#define TSAD_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const char* const kLayers[] = {"common",     "datasets", "substrates",
                               "detectors",  "robustness", "scoring",
                               "core",       "serving"};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Golden file lines: "<workload> <key> <field>...".
std::map<std::string, std::vector<std::string>> LoadGolden(
    const std::string& path, const std::string& workload) {
  std::map<std::string, std::vector<std::string>> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, key, field;
    fields >> w >> key;
    if (w != workload) continue;
    std::vector<std::string>& values = golden[key];
    while (fields >> field) values.push_back(field);
  }
  return golden;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tsad_perfbench --workload table1|leaderboard|serve_fleet "
               "--seed N --seconds S [--trace 0|1] [--threads T] [--smoke] "
               "[--golden FILE] [--out-dir DIR] [--source-sha SHA]\n"
               "       tsad_perfbench --record-golden WORKLOAD [--threads T]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, golden_path, out_dir, source_sha = "unknown", record;
  RunContext ctx;
  ctx.threads = 0;  // 0 = the workload's default, below
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      ctx.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      ctx.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--threads") {
      ctx.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--golden") {
      golden_path = argv[++i];
    } else if (arg == "--out-dir") {
      out_dir = argv[++i];
    } else if (arg == "--source-sha") {
      source_sha = argv[++i];
    } else if (arg == "--record-golden") {
      record = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(ctx.seconds > 0.0)) return Usage();
  // Batch workloads use every core. serve_fleet pumps on the calling
  // thread alone: its capacity barely grows with threads (pushes and
  // evictions run serially on the caller), while with a pool each
  // pump's barrier waits for whichever core the host preempts. On a
  // 4-vCPU host, per-repetition p99 latency swung between 1.3 and 16 ms
  // at 3 threads and stayed within 1.4 to 2.5 ms at 1.
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  if (ctx.threads == 0) ctx.threads = workload == "serve_fleet" ? 1 : nproc;
  tsad::SetParallelThreads(ctx.threads);
  const tsad::Status env = tsad::ApplySimdTierEnv();
  if (!env.ok()) {
    std::fprintf(stderr, "%s\n", env.ToString().c_str());
    return 2;
  }

  if (!record.empty()) {
    std::vector<std::string> lines;
    if (record == "table1") lines = Table1Golden();
    else if (record == "leaderboard") lines = LeaderboardGolden();
    else if (record == "serve_fleet") lines = ServeFleetGolden();
    else return Usage();
    for (const std::string& line : lines) std::printf("%s %s\n", record.c_str(), line.c_str());
    return 0;
  }

  RunResult (*run)(const RunContext&) = nullptr;
  if (workload == "table1") run = &Table1Workload;
  if (workload == "leaderboard") run = &LeaderboardWorkload;
  if (workload == "serve_fleet") run = &ServeFleetWorkload;
  if (run == nullptr) return Usage();
  if (!golden_path.empty()) ctx.golden = LoadGolden(golden_path, workload);

  Tracer tracer(ctx.trace);
  ctx.tracer = &tracer;
  RunResult result = run(ctx);

  if (ctx.trace) {
    const std::vector<Span> spans = tracer.spans();
    const std::map<std::string, double> self = LayerSelfSeconds(spans);
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      result.Add(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second, "s");
    }
    result.Add("trace.spans", static_cast<double>(spans.size()), "count");
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/spans-" + workload + "-seed" +
                               std::to_string(ctx.seed) + ".jsonl";
      if (WriteSpans(spans, path)) result.Note("spans_file", path);
    }
  }

  std::string out = "{\"workload\": " + Json(workload);
  out += ", \"seed\": " + std::to_string(ctx.seed);
  out += ", \"trace\": " + std::string(ctx.trace ? "1" : "0");
  out += ", \"correct\": " + std::string(result.correct ? "true" : "false");
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    out += (i ? ", " : "") + Json(result.problems[i]);
  }
  out += "], \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"failed_frac\": " +
         Number(result.attempted ? static_cast<double>(result.failed) /
                                       static_cast<double>(result.attempted)
                                 : 0.0);
  out += ", \"failed_base\": " + Json(result.failed_base);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i ? ", " : "") + Json(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Json(m.unit) + "}";
  }
  out += "}, \"notes\": {";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    out += (i ? ", " : "") + Json(result.notes[i].first) + ": " +
           Json(result.notes[i].second);
  }
  out += "}, \"stamp\": {";
  out += "\"cpu_model\": " + Json(CpuModel());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"threads\": " + std::to_string(ctx.threads);
  out += ", \"build_type\": " + Json(TSAD_PERFBENCH_BUILD_TYPE);
  out += ", \"simd_active\": " + Json(tsad::SimdTierName(tsad::ActiveSimdTier()));
  out += ", \"simd_detected\": " + Json(tsad::SimdTierName(tsad::DetectSimdTier()));
  out += ", \"source_sha\": " + Json(source_sha);
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
