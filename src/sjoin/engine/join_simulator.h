#ifndef SJOIN_ENGINE_JOIN_SIMULATOR_H_
#define SJOIN_ENGINE_JOIN_SIMULATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/tuple.h"

/// \file
/// Discrete-time simulator of the two-stream joining problem (Section 2).
///
/// At every time step each stream produces one tuple. Arrivals first join
/// with the cache selected at the previous step (this is exactly the
/// performance definition f(A, N) of Section 3.3), then the policy picks the
/// new cache content from the old cache plus the two arrivals. Joins between
/// the two same-time arrivals are produced regardless of any replacement
/// decision and are therefore excluded from the score, as in the paper.
///
/// Since the StreamEngine unification this class is a thin façade: it
/// instantiates the engine on the binary topology, adapts the policy with
/// BinaryPolicyAdapter, and attaches the standard observers. It is kept
/// because its Value-vector API is what the experiments, tests and
/// examples speak; constructing StreamEngine directly is equivalent (the
/// differential suites run both ways in CI).

namespace sjoin {

/// Per-run accounting.
struct JoinRunResult {
  /// Result tuples produced from the cache over the whole run.
  std::int64_t total_results = 0;
  /// Result tuples produced at times >= warmup (the paper's metric).
  std::int64_t counted_results = 0;
  /// When Options::track_cache_composition is set: fraction of cache slots
  /// holding R tuples after each step (Figures 14, 17, 18).
  std::vector<double> r_fraction_by_time;
  /// Perf telemetry (peak candidate set, steps, wall time), collected by
  /// the façade's PerfObserver; the same struct CacheRunResult carries.
  EngineTelemetry telemetry;
};

/// Runs one joining experiment.
class JoinSimulator {
 public:
  struct Options {
    /// Cache capacity k.
    std::size_t capacity = 10;
    /// Results produced before this time are not counted (the paper uses a
    /// warm-up of at least 4x the cache size).
    Time warmup = 0;
    /// Sliding-window length (Section 7); nullopt = regular join semantics.
    std::optional<Time> window;
    /// Record the per-step fraction of R tuples in the cache.
    bool track_cache_composition = false;
    /// Value-domain shards (engine/sharded_stream_engine.h), run inline
    /// on the calling thread; results are bit-identical for any count.
    /// <= 1, or a policy without shard scoring, runs serially.
    int shards = 1;
  };

  explicit JoinSimulator(Options options);

  /// Simulates the realization pair (r[t], s[t] for t = 0..len-1) under
  /// `policy`. Calls policy.Reset() first. Thread-safe: each call builds
  /// its own engine, so one JoinSimulator may serve concurrent runs (the
  /// parallel bench harness relies on this).
  JoinRunResult Run(const std::vector<Value>& r, const std::vector<Value>& s,
                    ReplacementPolicy& policy) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_JOIN_SIMULATOR_H_
