#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list the same names and units as BENCHMARK.json (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"steps_per_s", "1/s"},
    {"event_latency_us_p50", "us"},
    {"counted_results", "count"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"engine.self_us_per_step", "us"},
    {"engine.us_per_candidate", "us"},
    {"engine.candidates_per_step", "count"},
    {"policy.us_per_step", "us"},
    {"policy.us_per_candidate", "us"},
    {"policy.share", "ratio"},
    {"stochastic.predict_calls_per_step", "count"},
    {"stochastic.predict_us_per_step", "us"},
    {"setup.fit_s", "s"},
    {"setup.surface_s", "s"},
    {"setup.bicubic_s", "s"},
    {"setup.policy_s", "s"},
    {"core.repo_builds", "count"},
    {"core.repo_hits", "count"},
    {"cache.hit_ratio", "ratio"},
    {"serve.round_us_p50", "us"},
    {"serve.round_us_p99", "us"},
    {"serve.slice_us_per_step", "us"},
    {"serve.offer_us_per_step", "us"},
    {"serve.worker_busy_frac", "ratio"},
    {"serve.queue_depth_max", "count"},
    {"bench.generator_late_us_p99", "us"},
    {"bench.trace_overhead", "ratio"},
};

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WeightedQuantile(std::vector<std::pair<double, std::int64_t>> samples,
                        double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::int64_t total = 0;
  for (const auto& sample : samples) total += sample.second;
  const double target = q * static_cast<double>(total);
  std::int64_t seen = 0;
  for (const auto& sample : samples) {
    seen += sample.second;
    if (static_cast<double>(seen) >= target) return sample.first;
  }
  return samples.back().first;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

void PrintResult(const BenchResult& result, bool trace) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) line += ", ";
    first = false;
    line += std::string("\"") + spec.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
