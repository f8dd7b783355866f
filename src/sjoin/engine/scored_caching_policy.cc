#include "sjoin/engine/scored_caching_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/rank_order.h"

namespace sjoin {

std::vector<Value> ScoredCachingPolicy::SelectRetained(
    const CachingContext& ctx) {
  struct Candidate {
    double score;
    bool is_referenced;
    Value value;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(ctx.cached->size() + 1);
  // Observer branch hoisted out of the loop, as in ScoredPolicy: observer
  // runs stay on the scalar path, observer-free runs use the batch kernel
  // when the subclass has one.
  if (score_observer_) {
    for (Value v : *ctx.cached) {
      double score = Score(v, ctx);
      score_observer_(v, score);
      candidates.push_back({score, v == ctx.referenced, v});
    }
    if (!ctx.hit) {
      double score = Score(ctx.referenced, ctx);
      score_observer_(ctx.referenced, score);
      candidates.push_back({score, true, ctx.referenced});
    }
  } else if (BatchScorable()) {
    // Values-only SoA batch: cached values in cache order, then the
    // referenced value on a miss — the scalar scoring order.
    batch_values_.assign(ctx.cached->begin(), ctx.cached->end());
    if (!ctx.hit) batch_values_.push_back(ctx.referenced);
    batch_scores_.resize(batch_values_.size());
    CandidateBatch batch;
    batch.size = batch_values_.size();
    batch.values = batch_values_.data();
    ScoreBatchInto(batch, ctx, batch_scores_.data());
    for (std::size_t i = 0; i < ctx.cached->size(); ++i) {
      candidates.push_back(
          {batch_scores_[i], batch_values_[i] == ctx.referenced,
           batch_values_[i]});
    }
    if (!ctx.hit) {
      candidates.push_back({batch_scores_.back(), true, ctx.referenced});
    }
  } else {
    for (Value v : *ctx.cached) {
      candidates.push_back({Score(v, ctx), v == ctx.referenced, v});
    }
    if (!ctx.hit) {
      candidates.push_back({Score(ctx.referenced, ctx), true, ctx.referenced});
    }
  }
  auto better = [](const Candidate& a, const Candidate& b) {
    // rank_order.h with (major, minor) = (is-referenced, value),
    // the ShardKey mapping of the Theorem 1 reduction.
    return RankOrderBetter(a.score, static_cast<int>(a.is_referenced),
                           a.value, b.score,
                           static_cast<int>(b.is_referenced), b.value);
  };
  // nth_element + prefix sort: the order is strict and total (values are
  // unique within cached ∪ {referenced}), so the sorted prefix equals the
  // former full sort's prefix.
  std::size_t keep = std::min(ctx.capacity, candidates.size());
  if (keep < candidates.size()) {
    std::nth_element(candidates.begin(), candidates.begin() + keep,
                     candidates.end(), better);
  }
  std::sort(candidates.begin(), candidates.begin() + keep, better);
  std::vector<Value> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    retained.push_back(candidates[i].value);
  }
  return retained;
}

void ScoredCachingPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                         const CachingContext& ctx,
                                         double* out) {
  for (std::size_t i = 0; i < batch.size; ++i) {
    out[i] = Score(batch.values[i], ctx);
  }
}

}  // namespace sjoin
