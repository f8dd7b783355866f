#include "sjoin/core/heeb_caching_policy.h"

#include <cmath>
#include <unordered_map>

#include "sjoin/common/check.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/model_repo.h"
#include "sjoin/stochastic/random_walk_process.h"

namespace sjoin {

HeebCachingPolicy::HeebCachingPolicy(const StochasticProcess* reference,
                                     Options options)
    : reference_(reference),
      options_(std::move(options)),
      exp_lifetime_(options_.alpha),
      horizon_(options_.horizon > 0 ? options_.horizon
                                    : ExpHorizon(options_.alpha)) {
  switch (options_.mode) {
    case Mode::kDirect:
      SJOIN_CHECK(reference_ != nullptr);
      break;
    case Mode::kTimeIncremental:
      SJOIN_CHECK(reference_ != nullptr);
      SJOIN_CHECK_MSG(reference_->IsIndependent(),
                      "incremental caching HEEB requires independent "
                      "reference variables");
      SJOIN_CHECK_MSG(options_.lifetime == nullptr,
                      "incremental caching HEEB is defined for L_exp only");
      break;
    case Mode::kWalkTable: {
      const auto* walk = dynamic_cast<const RandomWalkProcess*>(reference_);
      SJOIN_CHECK_MSG(walk != nullptr,
                      "walk-table caching HEEB requires a random-walk "
                      "reference");
      if (options_.lifetime == nullptr) {
        ModelRepo& repo =
            options_.repo != nullptr ? *options_.repo : ModelRepo::Global();
        walk_table_ = repo.WalkCachingHeebTable(
            *walk, options_.alpha, horizon_, options_.walk_max_offset);
      } else {
        // A caller-supplied lifetime has no content-addressable identity;
        // build privately rather than risk key collisions in the repo.
        walk_table_ = std::make_shared<const OffsetTable>(
            PrecomputeWalkCachingHeeb(*walk, *options_.lifetime, horizon_,
                                      options_.walk_max_offset));
      }
      break;
    }
    case Mode::kEvaluator:
      SJOIN_CHECK_MSG(options_.evaluator != nullptr,
                      "kEvaluator requires an evaluator function");
      break;
  }
}

void HeebCachingPolicy::Reset() {
  cached_h_.clear();
  state_time_ = -1;
}

double HeebCachingPolicy::DirectScore(Value v,
                                      const CachingContext& ctx) const {
  const LifetimeFn& lifetime =
      options_.lifetime != nullptr
          ? *options_.lifetime
          : static_cast<const LifetimeFn&>(exp_lifetime_);
  return CachingHeeb(*reference_, *ctx.history, ctx.now, v, lifetime,
                     horizon_);
}

void HeebCachingPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                       const CachingContext& ctx,
                                       double* out) {
  switch (options_.mode) {
    case Mode::kDirect: {
      const LifetimeFn& lifetime =
          options_.lifetime != nullptr
              ? *options_.lifetime
              : static_cast<const LifetimeFn&>(exp_lifetime_);
      CachingHeebBatch(*reference_, *ctx.history, ctx.now, batch.values,
                       batch.size, lifetime, horizon_, out);
      return;
    }
    case Mode::kWalkTable: {
      const OffsetTable& table = *walk_table_;
      const double* data = table.values().data();
      const Value size = static_cast<Value>(table.values().size());
      // At(v - last) indexes values()[v - last - min_offset]; fold the
      // two subtractions into one base.
      const Value base = ctx.history->back() + table.min_offset();
      for (std::size_t i = 0; i < batch.size; ++i) {
        const Value off = batch.values[i] - base;
        out[i] = off >= 0 && off < size
                     ? data[static_cast<std::size_t>(off)]
                     : 0.0;
      }
      return;
    }
    case Mode::kEvaluator:
    case Mode::kTimeIncremental:
      // Not batch-scorable (see BatchScorable); per-lane fallback keeps
      // any direct caller correct.
      ScoredCachingPolicy::ScoreBatchInto(batch, ctx, out);
      return;
  }
}

double HeebCachingPolicy::Score(Value v, const CachingContext& ctx) {
  switch (options_.mode) {
    case Mode::kDirect:
      return DirectScore(v, ctx);
    case Mode::kWalkTable:
      return walk_table_->At(v - ctx.history->back());
    case Mode::kEvaluator:
      return options_.evaluator(v, ctx.history->back());
    case Mode::kTimeIncremental: {
      // Corollary 4: advance the stored H values to the current time:
      // H_t = (e^{1/alpha} H_{t-1} - P_t) / (1 - P_t), P_t = Pr{X_t = v}.
      if (state_time_ >= 0 && state_time_ < ctx.now) {
        Time gap = ctx.now - state_time_;
        double e = std::exp(1.0 / options_.alpha);
        for (auto& [value, state] : cached_h_) {
          state.updates_since_refresh += gap;
          if (state.updates_since_refresh >= options_.refresh_interval) {
            // Re-anchor: the recurrence is an unstable iteration whose
            // error grows by e^{1/alpha}/(1-p) per step.
            state.h = DirectScore(value, ctx);
            state.updates_since_refresh = 0;
            continue;
          }
          bool reanchored = false;
          for (Time t = state_time_ + 1; t <= ctx.now; ++t) {
            double p = reference_->Predict(*ctx.history, t).Prob(value);
            if (p >= 1.0 - 1e-9) {
              // Deterministic reference (p = 1): the recurrence divides by
              // zero; recompute directly instead.
              state.h = DirectScore(value, ctx);
              state.updates_since_refresh = 0;
              reanchored = true;
              break;
            }
            state.h = (e * state.h - p) / (1.0 - p);
            if (state.h < 0.0) state.h = 0.0;  // Guard truncation drift.
          }
          if (reanchored) continue;
        }
        // Drop values no longer cached (and not the current candidate):
        // one pass stamps the cached values, one pass erases the rest.
        for (Value value : *ctx.cached) {
          auto it = cached_h_.find(value);
          if (it != cached_h_.end()) it->second.live_at = ctx.now;
        }
        std::erase_if(cached_h_, [&ctx](const auto& entry) {
          return entry.first != ctx.referenced &&
                 entry.second.live_at != ctx.now;
        });
      }
      state_time_ = ctx.now;
      auto it = cached_h_.find(v);
      if (it != cached_h_.end()) return it->second.h;
      double h = DirectScore(v, ctx);
      cached_h_[v] = IncrementalState{h, 0};
      return h;
    }
  }
  return 0.0;
}

}  // namespace sjoin
