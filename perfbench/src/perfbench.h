#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>

/// \file
/// Shared types of the repository benchmark: what a workload receives from
/// the command line and what it hands back for the report. See README.md
/// for the workloads and the metrics they produce.

namespace perfbench {

/// Parsed command line of one benchmark run.
struct BenchArgs {
  std::string workload;
  std::uint64_t seed = 0;
  /// Length of the measured window.
  double seconds = 10.0;
  /// false: the untraced run (end-to-end metrics); true: the traced run
  /// (per-layer metrics).
  bool trace = false;
};

/// What one workload run produced. `metrics` holds values by metric name;
/// the report fills names a workload does not produce with 0 and attaches
/// the units.
struct BenchResult {
  /// False when any output failed its check (oracle, solo replay, rerun
  /// determinism or traced-vs-untraced equality).
  bool correct = true;
  /// Operations the run attempted (steps) and how many of them failed:
  /// shed, rejected, or part of a run whose output mismatched its check.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
};

BenchResult RunJoinHeebTower(const BenchArgs& args);
BenchResult RunCacheHeebReal(const BenchArgs& args);
BenchResult RunServeProbOpen(const BenchArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
