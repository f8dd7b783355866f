#ifndef SJOIN_CORE_HEEB_CACHING_POLICY_H_
#define SJOIN_CORE_HEEB_CACHING_POLICY_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/core/precompute.h"
#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/stochastic/prediction_ring.h"
#include "sjoin/stochastic/process.h"

/// \file
/// HEEB for the caching problem (Sections 4.3-4.4, via the reduction of
/// Section 2). The caching H_x weights first-reference probabilities:
///   H_x = Σ_{Δt} Pr{(X_{t0+Δt}=v_x) ∩ (∩_{t0<t<t0+Δt} X_t != v_x)} L(Δt).

namespace sjoin {

class ModelRepo;

/// HEEB replacement policy for stream-references-database caching.
class HeebCachingPolicy final : public ScoredCachingPolicy {
 public:
  enum class Mode {
    /// Direct truncated sum with per-step marginals; exact for
    /// independent-step reference processes (offline / stationary / trend).
    kDirect,
    /// Corollary 4: O(1) update per cached value per step. L_exp +
    /// independent reference variables.
    kTimeIncremental,
    /// Theorem 5(2) + first-passage DP: random-walk reference; h1 offset
    /// table precomputed at construction (Figure 6).
    kWalkTable,
    /// Externally precomputed evaluator h(v, x_t0) — e.g. the exact AR(1)
    /// surface table or its bicubic approximation (Figures 13, 15, 16).
    kEvaluator,
  };

  struct Options {
    Mode mode = Mode::kDirect;
    double alpha = 10.0;
    Time horizon = 0;  // 0 = derive from alpha.
    const LifetimeFn* lifetime = nullptr;  // kDirect only; not owned.
    /// kWalkTable: table half-width (offsets considered).
    Value walk_max_offset = 64;
    /// kEvaluator: h(v, last observed reference value).
    std::function<double(Value v, Value last)> evaluator;
    /// kTimeIncremental: recompute H directly after this many incremental
    /// updates. The Corollary 4 recurrence amplifies numeric error by
    /// e^{1/alpha}/(1-p) per step (an unstable fixed-point iteration), so
    /// long-cached tuples need periodic re-anchoring.
    Time refresh_interval = 24;
    /// kWalkTable: the repo the h1 table is borrowed from (not owned);
    /// nullptr = ModelRepo::Global(). A custom `lifetime` forces a
    /// private build instead.
    ModelRepo* repo = nullptr;
  };

  /// `reference` is not owned; required for all modes except kEvaluator.
  HeebCachingPolicy(const StochasticProcess* reference, Options options);

  void Reset() override;

  const char* name() const override { return "HEEB"; }

  /// kDirect and kWalkTable score through read-only state (the direct sum
  /// and the precomputed offset table). kTimeIncremental advances and
  /// inserts incremental state inside Score, and kEvaluator runs a user
  /// function of unknown thread safety — both stay serial.
  bool ShardScorable() const override {
    return options_.mode == Mode::kDirect ||
           options_.mode == Mode::kWalkTable;
  }

 protected:
  double Score(Value v, const CachingContext& ctx) override;
  /// Batched kernels for the stateless modes: kDirect shares one
  /// predictive pmf per step across every lane (CachingHeebBatch) where
  /// the scalar loop re-predicts per (value, step); kWalkTable gathers
  /// from the h1 offset table with the reference anchor hoisted out of
  /// the lane loop. Scores are bit-identical to Score().
  bool BatchScorable() const override {
    return options_.mode == Mode::kDirect ||
           options_.mode == Mode::kWalkTable;
  }
  void ScoreBatchInto(const CandidateBatch& batch, const CachingContext& ctx,
                      double* out) override;

 private:
  /// Direct truncated-sum H. kTimeIncremental reads the ring (advanced to
  /// ctx.now by Score) and the lifetime table; the other modes predict
  /// through CachingHeeb. Both sum the same dt-ascending terms, so the
  /// scores are bit-identical.
  double DirectScore(Value v, const CachingContext& ctx) const;

  const StochasticProcess* reference_;
  Options options_;
  ExpLifetime exp_lifetime_;
  Time horizon_;
  // Borrowed from the ModelRepo — const-shared with every other policy on
  // the same model.
  std::shared_ptr<const OffsetTable> walk_table_;

  // kTimeIncremental state: H per cached value at time state_time_.
  struct IncrementalState {
    double h = 0.0;
    Time updates_since_refresh = 0;
    /// Last step at which the value was seen in the cache (stale sweep).
    Time live_at = -1;
  };
  std::unordered_map<Value, IncrementalState> cached_h_;
  Time state_time_ = -1;
  // The reference's pmfs for the window [now, now + horizon], and L(dt)
  // for dt = 1..horizon (the same doubles lifetime.At returns).
  PredictionRing ring_;
  std::vector<double> lifetime_flat_;
  // One Corollary 4 pmf per elapsed step, shared by every cached value:
  // the ring's entry for now, preceded on a longer gap by predictions of
  // the earlier elapsed steps into advance_pmfs_.
  std::vector<DiscreteDistribution> advance_pmfs_;
  std::vector<PmfView> advance_views_;
};

}  // namespace sjoin

#endif  // SJOIN_CORE_HEEB_CACHING_POLICY_H_
