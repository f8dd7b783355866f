#include "sjoin/multi/multi_heeb_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/ranked_select.h"

namespace sjoin {

MultiHeebPolicy::MultiHeebPolicy(
    const std::vector<const StochasticProcess*>& processes,
    const MultiJoinSimulator* simulator, Options options)
    : processes_(processes),
      simulator_(simulator),
      options_(options),
      lifetime_(options.alpha) {
  SJOIN_CHECK(simulator != nullptr);
  SJOIN_CHECK_EQ(static_cast<int>(processes_.size()),
                 simulator_->num_streams());
  for (const StochasticProcess* process : processes_) {
    SJOIN_CHECK(process != nullptr);
  }
  SJOIN_CHECK_GE(options_.horizon, 1);
  ring_ = PredictionRing(processes_, options_.horizon);
}

void MultiHeebPolicy::Reset() {
  ring_.Reset();
  memo_.Reset(simulator_->num_streams());
}

std::vector<TupleId> MultiHeebPolicy::SelectRetained(
    const MultiPolicyContext& ctx) {
  ring_.Advance(ctx.now, *ctx.histories);
  ScoreMemo* memo = options_.use_score_cache ? &memo_ : nullptr;
  if (memo != nullptr) memo->BeginStep();

  auto score = [&](const MultiTuple& tuple) {
    Time max_dt = options_.horizon;
    if (ctx.window.has_value()) {
      max_dt = std::min(max_dt, tuple.arrival + *ctx.window - ctx.now);
    }
    double h = 0.0;
    // Appendix C: sum the binary HEEB over all partner streams. Each
    // partner's inner sum goes through a subtotal so the memoized and
    // from-scratch paths round identically.
    for (int partner : simulator_->PartnersOf(tuple.stream)) {
      double subtotal = 0.0;
      if (memo == nullptr ||
          !memo->Lookup(partner, tuple.value, max_dt, &subtotal)) {
        const PmfView* ahead = ring_.Ahead(partner);
        for (Time dt = 1; dt <= max_dt; ++dt) {
          subtotal += ahead[dt - 1].Prob(tuple.value) * lifetime_.At(dt);
        }
        if (memo != nullptr) {
          memo->Store(partner, tuple.value, max_dt, subtotal);
        }
      }
      h += subtotal;
    }
    return h;
  };

  std::vector<RankedTuple> ranked;
  ranked.reserve(ctx.cached->size() + ctx.arrivals->size());
  for (const MultiTuple& tuple : *ctx.cached) {
    ranked.push_back({score(tuple), tuple.arrival, tuple.id});
  }
  for (const MultiTuple& tuple : *ctx.arrivals) {
    ranked.push_back({score(tuple), tuple.arrival, tuple.id});
  }
  return KeepBestRanked(std::move(ranked), ctx.capacity);
}

std::vector<TupleId> MultiRandomPolicy::SelectRetained(
    const MultiPolicyContext& ctx) {
  std::vector<RankedTuple> ranked;
  ranked.reserve(ctx.cached->size() + ctx.arrivals->size());
  for (const MultiTuple& tuple : *ctx.cached) {
    ranked.push_back({rng_.UniformReal(), tuple.arrival, tuple.id});
  }
  for (const MultiTuple& tuple : *ctx.arrivals) {
    ranked.push_back({rng_.UniformReal(), tuple.arrival, tuple.id});
  }
  return KeepBestRanked(std::move(ranked), ctx.capacity);
}

}  // namespace sjoin
