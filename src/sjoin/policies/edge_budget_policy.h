#ifndef SJOIN_POLICIES_EDGE_BUDGET_POLICY_H_
#define SJOIN_POLICIES_EDGE_BUDGET_POLICY_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/ranked_select.h"
#include "sjoin/engine/score_memo.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/stochastic/prediction_ring.h"
#include "sjoin/stochastic/process.h"

/// \file
/// Per-edge cache budgeting for the multi-join problem (DESIGN.md §2f) —
/// the ECB/HEEB extension the paper never did: instead of ranking every
/// candidate by its *summed* expected benefit (Appendix C), split the
/// total capacity k across the join edges in proportion to each edge's
/// observed expected-benefit mass, and let each edge retain its own best
/// incident tuples under its budget.
///
/// The per-edge score of a tuple x on edge e = (a, b) is exactly the
/// binary HEEB term against the opposite stream, Σ_Δt Pr{X^p = v_x} L(Δt)
/// — the same per-partner subtotal MultiHeebPolicy computes, so the two
/// policies share the ScoreMemo machinery. Budgets follow a deterministic
/// reallocation schedule: every `realloc_interval` steps the per-edge
/// benefit mass accumulated since the last checkpoint is folded into a
/// decayed counter and k is re-apportioned by largest remainder (ties on
/// the edge index). Between checkpoints budgets are frozen, so — like the
/// probe planner — the whole schedule is a pure function of the observed
/// prefix of the run and replays identically.

namespace sjoin {

/// Shared-cache replacement with per-edge budgets.
class EdgeBudgetPolicy final : public EnginePolicy {
 public:
  struct Options {
    /// ExpLifetime decay for the per-edge HEEB term.
    double alpha = 10.0;
    /// Prediction horizon for the per-edge HEEB term.
    Time horizon = 100;
    /// Steps between budget reallocation checkpoints; >= 1.
    Time realloc_interval = 64;
    /// Multiplier applied to the accumulated benefit mass per checkpoint.
    double decay = 0.5;
    /// Memoize per-(partner, value) HEEB subtotals per step.
    bool use_score_cache = false;
  };

  /// `processes[s]` models stream s; `topology` supplies the join edges.
  /// Neither is owned; both must outlive the policy.
  EdgeBudgetPolicy(const std::vector<const StochasticProcess*>& processes,
                   const StreamTopology* topology, Options options);

  void Reset() override;
  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override;
  const char* name() const override { return "EDGE-BUDGET"; }

  /// Current per-edge budgets (index-aligned with topology join_edges).
  const std::vector<std::size_t>& budgets() const { return budgets_; }
  /// Reallocation checkpoints reached so far.
  std::int64_t realloc_checkpoints() const { return realloc_checkpoints_; }
  const ScoreMemo::Stats& score_cache_stats() const { return memo_.stats(); }

 private:
  /// Largest-remainder apportionment of `total` over `weights` (equal
  /// split, ties to lower indexes, when every weight is zero).
  static void Apportion(std::size_t total,
                        const std::vector<double>& weights,
                        std::vector<std::size_t>* out);

  /// The binary HEEB subtotal of `value` against `partner`, memoized.
  double PartnerSubtotal(int partner, Value value, Time max_dt,
                         ScoreMemo* memo);

  std::vector<const StochasticProcess*> processes_;
  const StreamTopology* topology_;
  Options options_;
  ExpLifetime lifetime_;

  // Per-stream predictive pmfs for the next `horizon` times.
  PredictionRing ring_;
  ScoreMemo memo_;

  /// Benefit mass per edge: decayed history + the current window.
  std::vector<double> decayed_mass_;
  std::vector<double> window_mass_;
  std::vector<std::size_t> budgets_;
  std::int64_t realloc_checkpoints_ = 0;

  // Per-step scratch, hoisted.
  std::vector<std::vector<RankedTuple>> edge_ranked_;
  std::vector<RankedTuple> total_ranked_;
  std::unordered_set<TupleId> claimed_;
};

}  // namespace sjoin

#endif  // SJOIN_POLICIES_EDGE_BUDGET_POLICY_H_
