#ifndef SJOIN_MULTI_MULTI_HEEB_POLICY_H_
#define SJOIN_MULTI_MULTI_HEEB_POLICY_H_

#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/score_memo.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/stochastic/prediction_ring.h"
#include "sjoin/stochastic/process.h"

/// \file
/// HEEB for multiple binary joins (Appendix C): a candidate tuple's
/// expected benefit is the *sum over its partner streams* of the binary
/// HEEB terms,
///   H_x = Σ_{p ∈ partners(stream(x))} Σ_{Δt} Pr{X^p_{t0+Δt} = v_x} L(Δt).
///
/// Scoring accumulates each partner's inner sum into a subtotal and adds
/// the subtotals in partner order, so the subtotal for a (partner, value)
/// pair can be memoized per step (engine/score_memo.h) without changing a
/// single bit of any score — Options::use_score_cache turns that on.

namespace sjoin {

/// Direct-mode multi-join HEEB.
class MultiHeebPolicy final : public MultiReplacementPolicy {
 public:
  struct Options {
    double alpha = 10.0;
    Time horizon = 100;
    /// Memoize per-(partner, value) score subtotals for the step
    /// (bit-identical scores either way; see file comment).
    bool use_score_cache = false;
  };

  /// `processes[s]` models stream s; not owned. `simulator` supplies the
  /// join graph (PartnersOf); not owned.
  MultiHeebPolicy(const std::vector<const StochasticProcess*>& processes,
                  const MultiJoinSimulator* simulator, Options options);

  void Reset() override;

  std::vector<TupleId> SelectRetained(const MultiPolicyContext& ctx) override;

  const char* name() const override { return "MULTI-HEEB"; }

  /// Hit/miss accounting of the score memo (zero when disabled).
  const ScoreMemo::Stats& score_cache_stats() const { return memo_.stats(); }

 private:
  std::vector<const StochasticProcess*> processes_;
  const MultiJoinSimulator* simulator_;
  Options options_;
  ExpLifetime lifetime_;
  // Per-stream predictive pmfs for the next `horizon` times.
  PredictionRing ring_;
  ScoreMemo memo_;
};

/// Random eviction baseline for the multi-join problem.
class MultiRandomPolicy final : public MultiReplacementPolicy {
 public:
  explicit MultiRandomPolicy(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  void Reset() override { rng_ = Rng(seed_); }

  std::vector<TupleId> SelectRetained(const MultiPolicyContext& ctx) override;

  const char* name() const override { return "MULTI-RAND"; }

 private:
  Rng rng_;
  std::uint64_t seed_;
};

}  // namespace sjoin

#endif  // SJOIN_MULTI_MULTI_HEEB_POLICY_H_
