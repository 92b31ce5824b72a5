#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void Tracer::Record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string layer,
                       std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  span_.start = Now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = Now();
  tracer_->Record(std::move(span_));
}

double SumSeconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

namespace {

std::unordered_map<std::uint64_t, std::vector<const Span*>> ChildrenOf(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  return children;
}

// Length of the union of the children's intervals, clipped to parent.
double CoveredSeconds(const Span& parent, std::vector<const Span*> kids) {
  std::sort(kids.begin(), kids.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  double covered = 0.0, cursor = parent.start;
  for (const Span* k : kids) {
    const double lo = std::max(cursor, std::max(k->start, parent.start));
    const double hi = std::min(k->end, parent.end);
    if (hi > lo) covered += hi - lo;
    cursor = std::max(cursor, hi);
  }
  return covered;
}

}  // namespace

std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans) {
  const auto children = ChildrenOf(spans);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0 : CoveredSeconds(s, it->second);
    self[s.layer] += std::max(0.0, s.seconds() - covered);
  }
  return self;
}

PoolStats PoolStatsOf(const std::vector<Span>& spans, const std::string& sweep) {
  const auto children = ChildrenOf(spans);
  PoolStats stats;
  for (const Span& s : spans) {
    if (s.name != sweep) continue;
    stats.sweep_seconds += s.seconds();
    double last_start = s.start;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* k : it->second) {
        stats.busy_seconds += k->seconds();
        last_start = std::max(last_start, k->start);
      }
    }
    stats.tail_seconds += s.end - last_start;
  }
  return stats;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"thread\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name.c_str(), s.layer.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.thread), s.start * 1e6,
                 s.end * 1e6);
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Digest::Bytes(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

bool AnotherRep(const std::vector<double>& rep_seconds, double elapsed,
                double budget, std::size_t min_reps, std::size_t max_reps) {
  if (rep_seconds.size() >= max_reps) return false;
  if (rep_seconds.size() < min_reps) return true;
  return elapsed + Median(rep_seconds) <= budget;
}

}  // namespace perfbench
