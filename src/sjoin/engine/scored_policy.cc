#include "sjoin/engine/scored_policy.h"

#include <algorithm>

#include "sjoin/common/check.h"
#include "sjoin/engine/rank_order.h"

namespace sjoin {

std::vector<TupleId> ScoredPolicy::SelectRetained(const PolicyContext& ctx) {
  BeginStep(ctx);
  const std::size_t total = ctx.cached->size() + ctx.arrivals->size();
  ranked_scratch_.clear();
  ranked_scratch_.reserve(total);
  // The observer branch is hoisted out of the candidate loop: an
  // observer-installed run takes the scalar per-tuple path (the observer
  // contract is every score, in serial step order), an observer-free run
  // takes the batch kernel when one is available, and the remaining scalar
  // loop carries no branch per candidate.
  if (score_observer_) {
    for (const Tuple& t : *ctx.cached) {
      double score = Score(t, ctx);
      score_observer_(t, score);
      ranked_scratch_.push_back({score, t.arrival, t.id});
    }
    for (const Tuple& t : *ctx.arrivals) {
      double score = Score(t, ctx);
      score_observer_(t, score);
      ranked_scratch_.push_back({score, t.arrival, t.id});
    }
  } else if (ctx.batch != nullptr && BatchScorable()) {
    // One fused kernel call over the SoA view; lane order is the scalar
    // scoring order, so the scores are bitwise equal to the loops below.
    SJOIN_CHECK_EQ(ctx.batch->size, total);
    score_scratch_.resize(total);
    ScoreBatchInto(*ctx.batch, ctx, score_scratch_.data());
    for (std::size_t i = 0; i < total; ++i) {
      ranked_scratch_.push_back(
          {score_scratch_[i], ctx.batch->arrivals[i], ctx.batch->ids[i]});
    }
  } else {
    for (const Tuple& t : *ctx.cached) {
      ranked_scratch_.push_back({Score(t, ctx), t.arrival, t.id});
    }
    for (const Tuple& t : *ctx.arrivals) {
      ranked_scratch_.push_back({Score(t, ctx), t.arrival, t.id});
    }
  }
  // Top-k selection: partition the best `keep` to the front, sort only
  // that prefix. The rank order is strict and total (ids are unique), so
  // the prefix is exactly what the former full sort produced.
  std::size_t keep = std::min(ctx.capacity, ranked_scratch_.size());
  if (keep < ranked_scratch_.size()) {
    std::nth_element(ranked_scratch_.begin(), ranked_scratch_.begin() + keep,
                     ranked_scratch_.end(), RankedTupleBetter);
  }
  std::sort(ranked_scratch_.begin(), ranked_scratch_.begin() + keep,
            RankedTupleBetter);
  std::vector<TupleId> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    retained.push_back(ranked_scratch_[i].id);
  }
  EndStep(ctx, retained);
  return retained;
}

PolicyShardScoring* ScoredPolicy::shard_scoring() {
  if (!ShardScorable() || score_observer_) return nullptr;
  return this;
}

bool ScoredPolicy::ShardBeginStep(const PolicyContext& ctx,
                                  std::vector<TupleId>* decided) {
  (void)decided;
  BeginStep(ctx);
  return true;
}

std::optional<ShardKey> ScoredPolicy::ShardScoreCached(
    const Tuple& tuple, const PolicyContext& ctx, ShardScratch* scratch) {
  (void)scratch;
  return ShardKey{Score(tuple, ctx), tuple.arrival, tuple.id};
}

std::optional<ShardKey> ScoredPolicy::ShardScoreArrival(
    const Tuple& tuple, const PolicyContext& ctx) {
  return ShardKey{Score(tuple, ctx), tuple.arrival, tuple.id};
}

void ScoredPolicy::ShardEndStep(const PolicyContext& ctx,
                                const std::vector<TupleId>& retained,
                                const std::vector<TupleId>& evicted) {
  (void)evicted;
  EndStep(ctx, retained);
}

void ScoredPolicy::ShardScoreCachedBatch(const CandidateBatch& batch,
                                         const PolicyContext& ctx,
                                         ShardScratch* scratch,
                                         double* score_scratch,
                                         ShardKey* out) {
  (void)scratch;
  ScoreBatchInto(batch, ctx, score_scratch);
  for (std::size_t i = 0; i < batch.size; ++i) {
    out[i] = ShardKey{score_scratch[i], batch.arrivals[i],
                      static_cast<std::int64_t>(batch.ids[i])};
  }
}

void ScoredPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                  const PolicyContext& ctx, double* out) {
  for (std::size_t i = 0; i < batch.size; ++i) {
    Tuple tuple{batch.ids[i], static_cast<StreamSide>(batch.sides[i]),
                batch.values[i], batch.arrivals[i]};
    out[i] = Score(tuple, ctx);
  }
}

}  // namespace sjoin
