#ifndef PERFBENCH_WORKLOAD_UTIL_H_
#define PERFBENCH_WORKLOAD_UTIL_H_

#include <cstdint>
#include <vector>

#include "host.h"
#include "perfbench.h"
#include "report.h"
#include "trace.h"

/// \file
/// Helpers the workloads share: seed derivation, repeated set-up, the
/// closed-loop pass loop and its statistics.

namespace perfbench {

/// An independent 64-bit seed for input stream `stream` of run seed
/// `seed` (splitmix64 finalizer).
inline std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Runs `setup()` `repeats` times and returns the median wall seconds.
/// The callable keeps whatever it built last.
template <typename Setup>
double MedianSetupSeconds(int repeats, Setup setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return Quantile(seconds, 0.5);
}

/// A shared machine can slow the program by a third for tens of seconds at
/// a time (other tenants contend for the core's caches), so a run's median
/// flips between quiet and contended modes from run to run. Within-run
/// statistics are therefore taken at the quiet end of the run: the 10th
/// percentile over repeated passes (closed loops) or short windows of ticks
/// (serve) of their times and latency medians. See README.md,
/// "Steadiness".
inline constexpr double kQuietQuantile = 0.1;

/// Calls `pass(i)` for i = 0, 1, ... until `seconds` have elapsed and at
/// least `min_passes` passes ran. Contention differs between cores at any
/// one moment, so the passes rotate over the CPUs (PinToCpu) and the quiet
/// end of the run samples every core.
template <typename Pass>
void RepeatFor(double seconds, int min_passes, Pass pass) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; i < min_passes || NowNs() < deadline; ++i) {
    PinToCpu(i);
    pass(i);
  }
  UnpinThread();
}

/// One closed-loop pass: its wall time and the median of its step
/// latencies after the warm-up.
struct PassStats {
  double seconds = 0.0;
  double p50_us = 0.0;
};

/// Runs `run()` (one façade Run driving `clock`'s decorator) and clears
/// `clock`. Steps before `warmup` run on a cache that is still filling, so
/// they count toward the pass time but not its median step latency.
template <typename Run>
PassStats TimePass(StepClock& clock, std::size_t warmup, Run run) {
  PassStats stats;
  const std::int64_t start = NowNs();
  run();
  stats.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  const std::vector<double>& intervals = clock.intervals_us();
  if (intervals.size() > warmup) {
    stats.p50_us = Quantile(
        std::vector<double>(intervals.begin() + warmup, intervals.end()),
        0.5);
  }
  clock.Clear();
  return stats;
}

/// The closed-loop end-to-end metrics over a run's passes of
/// `steps_per_pass` steps each, at the quiet end of the run
/// (kQuietQuantile). Passes repeat the same work (join's realizations are
/// draws of one process), so differences between them are the machine's.
inline void ReportPasses(const std::vector<PassStats>& passes,
                         double steps_per_pass, BenchResult* result) {
  std::vector<double> seconds, p50_us;
  for (const PassStats& pass : passes) {
    seconds.push_back(pass.seconds);
    p50_us.push_back(pass.p50_us);
  }
  result->metrics["steps_per_s"] =
      steps_per_pass / Quantile(seconds, kQuietQuantile);
  result->metrics["event_latency_us_p50"] = Quantile(p50_us, kQuietQuantile);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_UTIL_H_
