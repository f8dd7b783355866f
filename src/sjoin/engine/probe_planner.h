#ifndef SJOIN_ENGINE_PROBE_PLANNER_H_
#define SJOIN_ENGINE_PROBE_PLANNER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sjoin/common/types.h"

/// \file
/// Runtime probe planning for the N-way step loop (DESIGN.md §2f).
///
/// Phase 1 probes each arrival against the cached tuples of every partner
/// stream. For a multi-way topology that inner loop has freedom the binary
/// join never had: the partner *order* is arbitrary (the produced count is
/// an integer sum, so any order gives the same result), probes against
/// partners that cache nothing can be skipped outright, and two probes of
/// the same (partner, value) pair within a stable cache return the same
/// count. ProbePlanner packages those three observations:
///
///  - a SelectivityMonitor keeps decayed per-directed-edge match-rate
///    counters, fed by every considered probe;
///  - a deterministic re-planner reorders each stream's partner probe list
///    at fixed step checkpoints (`now % replan_interval == 0`), highest
///    observed match rate first — the plan is a pure function of the
///    observed prefix of the run, so it replays identically across reruns
///    and thread counts;
///  - a probe-result cache memoizes the cached-partner match count per
///    (partner stream, value), shared by every edge that touches the same
///    value index, invalidated incrementally as the engine commits inserts
///    and evictions (windowed runs expire tuples by age, which the memo
///    cannot see, so they keep entries for one step only).
///
/// All of this is cost-only: `counted_results` and the retained sets are
/// bit-identical to the naive fixed-order probe loop, which the
/// multi_planner differential suite verifies at 1000 trials.

namespace sjoin {

class StreamTopology;

/// Cumulative planner accounting. `probes` counts every considered
/// (arrival, partner) pair and always equals skipped + cache_hits +
/// evaluated.
struct ProbePlanStats {
  /// Partner probes considered by Phase 1.
  std::int64_t probes = 0;
  /// Probes short-circuited because the partner stream caches no tuple.
  std::int64_t skipped = 0;
  /// Probes served from the (partner, value) probe-result cache.
  std::int64_t cache_hits = 0;
  /// Probes that actually hit the value index or scanned the cache.
  std::int64_t evaluated = 0;
  /// Checkpoints at which at least one stream's probe order changed.
  std::int64_t replans = 0;
  /// Re-plan checkpoints reached.
  std::int64_t checkpoints = 0;
};

/// How Phase 1 served one considered probe (stats + selectivity feed).
enum class ProbeKind { kSkipped, kMemoHit, kEvaluated };

/// Per-run probe planner + selectivity monitor + probe-result cache. Owned
/// by the caller (the façades build one per Run when enabled), attached to
/// the engine via StreamEngine::Options::probe_planner, and driven by the
/// step loop through the protocol below. Not thread-safe; the planner only
/// ever runs on the serial engine path.
class ProbePlanner {
 public:
  struct Options {
    /// Steps between re-plan checkpoints; >= 1.
    Time replan_interval = 64;
    /// Multiplier applied to the accumulated selectivity counters at each
    /// checkpoint; in (0, 1]. Smaller forgets faster.
    double decay = 0.5;
  };

  ProbePlanner() : ProbePlanner(Options()) {}
  explicit ProbePlanner(Options options);

  // --- Engine protocol, in call order -----------------------------------

  /// Sizes the monitor for `topology` and resets plans to topology partner
  /// order. `memo_across_steps` keeps probe-result entries alive across
  /// steps (valid only when no sliding window expires tuples by age).
  void BeginRun(const StreamTopology& topology, bool memo_across_steps);

  /// Starts a step: resets the per-step stats and, at checkpoint steps,
  /// decays the selectivity counters and recomputes every probe order.
  void BeginStep(Time now);

  /// The partner probe order for arrivals of `stream` this step.
  const std::vector<int>& PlanFor(int stream) const {
    return plans_[static_cast<std::size_t>(stream)];
  }

  /// Probe-result cache lookup for (partner, value); true on hit.
  bool LookupCount(int partner, Value value, std::int64_t* count) const;

  /// Stores an evaluated probe result for (partner, value).
  void StoreCount(int partner, Value value, std::int64_t count);

  /// Reports one considered probe: `matches` cached partner tuples for the
  /// arrival's value, served as `kind`. Feeds the selectivity counters and
  /// the stats. Every considered probe must be reported exactly once, in
  /// plan order, so the monitor state is independent of cache hit/miss
  /// timing.
  void ObserveProbe(int stream, int partner, std::int64_t matches,
                    ProbeKind kind);

  /// Invalidates the probe-result entry for (stream, value); called by the
  /// engine's commit for every inserted and evicted cached tuple.
  void OnCacheChange(int stream, Value value);

  // --- Accounting --------------------------------------------------------

  /// Stats accumulated since BeginRun.
  const ProbePlanStats& stats() const { return stats_; }
  /// Stats for the current step only (reset by BeginStep).
  const ProbePlanStats& step_stats() const { return step_stats_; }

  const Options& options() const { return options_; }

 private:
  /// Flattened (stream, partner) cell of the selectivity monitor.
  struct EdgeCounter {
    double probes = 0.0;
    double matches = 0.0;
  };

  std::size_t CellOf(int stream, int partner) const {
    return static_cast<std::size_t>(stream) *
               static_cast<std::size_t>(num_streams_) +
           static_cast<std::size_t>(partner);
  }

  /// Decays counters and rebuilds plans_; counts a replan if any order
  /// changed.
  void Replan();

  Options options_;
  int num_streams_ = 0;
  bool memo_across_steps_ = false;

  /// Decayed + in-window selectivity counters per directed edge.
  std::vector<EdgeCounter> decayed_;
  std::vector<EdgeCounter> window_;

  /// Current probe order per stream (a permutation of topology partners).
  std::vector<std::vector<int>> plans_;
  /// Scratch for Replan: (rate, partner) pairs.
  std::vector<std::pair<double, int>> rank_scratch_;

  /// Probe-result cache: value -> cached match count, per partner stream.
  std::vector<std::unordered_map<Value, std::int64_t>> memo_;

  ProbePlanStats stats_;
  ProbePlanStats step_stats_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_PROBE_PLANNER_H_
