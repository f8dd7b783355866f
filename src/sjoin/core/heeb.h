#ifndef SJOIN_CORE_HEEB_H_
#define SJOIN_CORE_HEEB_H_

#include "sjoin/common/types.h"
#include "sjoin/core/ecb.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The Heuristic of Estimated Expected Benefit, H_x (Section 4.3).
///
/// H_x = B_x(1) L_x(1) + Σ_{Δt>=2} (B_x(Δt) - B_x(Δt-1)) L_x(Δt):
/// the expected total benefit of caching x, weighting the benefit earned
/// at each future step by the estimated probability that x is still cached
/// then. Tuples with the lowest H are discarded. These free functions give
/// the definitional computations and predict every pmf they read, one
/// Predict per Δt. The policies in heeb_join_policy.h /
/// heeb_caching_policy.h apply Section 4.4's efficient implementations
/// instead: they sum the same dt-ascending terms over the pmfs of a
/// PredictionRing (stochastic/prediction_ring.h), which on independent
/// streams predicts one new time per step rather than horizon-many.

namespace sjoin {

/// H from an explicit ECB and lifetime function — the literal Section 4.3
/// definition, truncated at `horizon`.
double HeebFromEcb(const EcbFn& ecb, const LifetimeFn& lifetime,
                   Time horizon);

/// Joining form (Lemma 1 applied to the definition):
/// H = Σ_{Δt=1..horizon} Pr{X^partner_{t0+Δt} = v | x̄} L(Δt).
double JoiningHeeb(const StochasticProcess& partner,
                   const StreamHistory& partner_history, Time t0, Value v,
                   const LifetimeFn& lifetime, Time horizon);

/// Caching form (Corollary 1 applied to the definition):
/// H = Σ Pr{(X_{t0+Δt} = v) ∩ (no earlier reference) | x̄} L(Δt),
/// computed with per-step marginals — exact for independent-step reference
/// processes. For history-dependent references use the first-passage
/// computations in precompute.h.
double CachingHeeb(const StochasticProcess& reference,
                   const StreamHistory& history, Time t0, Value v,
                   const LifetimeFn& lifetime, Time horizon);

/// Batched caching form: scores `count` values against the same reference
/// and history in one pass. One predictive pmf per step is shared across
/// every lane (PredictInto — allocation-free in steady state) instead of
/// one Predict per (value, step) as the scalar loop pays. Each lane
/// accumulates in the same dt-ascending order with the same operations as
/// CachingHeeb, so out[i] is bit-identical to
/// CachingHeeb(reference, history, t0, values[i], lifetime, horizon).
void CachingHeebBatch(const StochasticProcess& reference,
                      const StreamHistory& history, Time t0,
                      const Value* values, std::size_t count,
                      const LifetimeFn& lifetime, Time horizon, double* out);

/// A horizon beyond which L_exp(α) contributions are below `epsilon` even
/// for per-step probability 1; α ln(α/ε) rounded up, at least 1.
Time ExpHorizon(double alpha, double epsilon = 1e-9);

}  // namespace sjoin

#endif  // SJOIN_CORE_HEEB_H_
