#include "sjoin/engine/reduction.h"

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"

namespace sjoin {

CachingReduction::CachingReduction(std::vector<Value> references)
    : references_(std::move(references)) {
  r_stream_.reserve(references_.size());
  s_stream_.reserve(references_.size());
  // Occurrences seen so far, per dense value id.
  std::vector<std::int64_t> occurrences;
  auto intern = [this](Value v, std::int64_t occurrence,
                       std::int32_t dense) -> Value {
    auto [it, inserted] =
        encode_.try_emplace({v, occurrence},
                            static_cast<Value>(decode_.size()));
    if (inserted) {
      decode_.push_back({v, occurrence});
      dense_of_encoded_.push_back(dense);
    }
    return it->second;
  };
  for (Value v : references_) {
    auto [it, first] = dense_of_value_.try_emplace(
        v, static_cast<std::int32_t>(dense_of_value_.size()));
    if (first) occurrences.push_back(0);
    const std::int32_t dense = it->second;
    std::int64_t seen = occurrences[static_cast<std::size_t>(dense)]++;
    // The (seen+1)-th occurrence of v becomes (v, seen) in R' and
    // (v, seen + 1) in S'.
    r_stream_.push_back(intern(v, seen, dense));
    s_stream_.push_back(intern(v, seen + 1, dense));
  }
}

Value CachingReduction::Encode(Value v, std::int64_t occurrence) const {
  auto it = encode_.find({v, occurrence});
  SJOIN_CHECK_MSG(it != encode_.end(), "pair never occurs in the reduction");
  return it->second;
}

std::pair<Value, std::int64_t> CachingReduction::Decode(Value encoded) const {
  SJOIN_CHECK_GE(encoded, 0);
  SJOIN_CHECK_LT(encoded, static_cast<Value>(decode_.size()));
  return decode_[static_cast<std::size_t>(encoded)];
}

std::int32_t CachingReduction::DenseOf(Value v) const {
  auto it = dense_of_value_.find(v);
  return it == dense_of_value_.end() ? -1 : it->second;
}

std::int32_t CachingReduction::DenseOfEncoded(Value encoded) const {
  SJOIN_CHECK_GE(encoded, 0);
  SJOIN_CHECK_LT(encoded, static_cast<Value>(dense_of_encoded_.size()));
  return dense_of_encoded_[static_cast<std::size_t>(encoded)];
}

ReductionJoinPolicy::ReductionJoinPolicy(const CachingReduction* reduction,
                                         CachingPolicy* caching_policy)
    : reduction_(reduction),
      caching_policy_(caching_policy),
      cached_pos_by_dense_(reduction->num_values(), -1) {}

void ReductionJoinPolicy::Reset() {
  caching_policy_->Reset();
  reference_history_ = StreamHistory();
  for (std::int32_t dense : cached_dense_) {
    cached_pos_by_dense_[static_cast<std::size_t>(dense)] = -1;
  }
  cached_dense_.clear();
}

void ReductionJoinPolicy::PrepareStep(const PolicyContext& ctx) {
  SJOIN_CHECK_EQ(ctx.arrivals->size(), 2u);
  // Identify the arrivals: exactly one R' and one S' tuple.
  const Tuple* r_arrival = nullptr;
  const Tuple* s_arrival = nullptr;
  for (const Tuple& tuple : *ctx.arrivals) {
    if (tuple.side == StreamSide::kR) r_arrival = &tuple;
    if (tuple.side == StreamSide::kS) s_arrival = &tuple;
  }
  SJOIN_CHECK(r_arrival != nullptr && s_arrival != nullptr);
  s_arrival_id_ = s_arrival->id;

  const std::int32_t ref_dense = reduction_->DenseOfEncoded(r_arrival->value);
  ref_value_ = reduction_->Decode(r_arrival->value).first;
  reference_history_.Append(ref_value_);

  // Decode the cached supply tuples into the dense position array:
  // original value -> cache position. A reasonable policy keeps at most
  // one supply tuple per original value. Only last step's entries are
  // reset, so the step stays O(cache) however many values exist.
  for (std::int32_t dense : cached_dense_) {
    cached_pos_by_dense_[static_cast<std::size_t>(dense)] = -1;
  }
  cached_dense_.clear();
  cached_values_.clear();
  const std::vector<Tuple>& cached = *ctx.cached;
  for (std::size_t pos = 0; pos < cached.size(); ++pos) {
    const Tuple& tuple = cached[pos];
    SJOIN_CHECK_MSG(tuple.side == StreamSide::kS,
                    "reasonable policy never caches reference tuples");
    const std::int32_t dense = reduction_->DenseOfEncoded(tuple.value);
    std::int32_t& slot = cached_pos_by_dense_[static_cast<std::size_t>(dense)];
    SJOIN_CHECK_MSG(slot < 0, "multiple supply tuples cached for one value");
    slot = static_cast<std::int32_t>(pos);
    cached_dense_.push_back(dense);
    cached_values_.push_back(reduction_->Decode(tuple.value).first);
  }
  if constexpr (kValidationEnabled) {
    // The dense positions must match a fresh decode of the cache.
    std::size_t set = 0;
    for (std::int32_t pos : cached_pos_by_dense_) set += pos >= 0 ? 1 : 0;
    SJOIN_VALIDATE_MSG(set == cached.size(),
                       "dense positions hold stale entries");
    for (std::size_t pos = 0; pos < cached.size(); ++pos) {
      const std::int32_t dense =
          reduction_->DenseOf(reduction_->Decode(cached[pos].value).first);
      SJOIN_VALIDATE_MSG(
          dense >= 0 && cached_pos_by_dense_[static_cast<std::size_t>(
                            dense)] == static_cast<std::int32_t>(pos),
          "dense positions out of sync with the cache");
    }
  }

  // A windowed hit additionally requires the cached supply tuple to still
  // be inside the window — the same predicate the engine's Phase-1 probe
  // applies, so Theorem 1's hits == results stays exact under windows.
  ref_pos_ = cached_pos_by_dense_[static_cast<std::size_t>(ref_dense)];
  hit_ = ref_pos_ >= 0 &&
         InWindow(cached[static_cast<std::size_t>(ref_pos_)], ctx.now,
                  ctx.window);

  // On a windowed miss the referenced value may still sit in the cache as
  // an expired entry. Expiry is monotone (only a hit refreshes, and an
  // expired entry can never hit), so that copy is dead weight; drop it
  // from the candidate set so the policy sees the referenced value once —
  // as the demand-fetched candidate — never as cached and referenced at
  // the same time.
  dropped_id_ = -1;
  if (!hit_ && ref_pos_ >= 0) {
    dropped_id_ = cached[static_cast<std::size_t>(ref_pos_)].id;
    cached_values_.erase(cached_values_.begin() + ref_pos_);
  }

  caching_ctx_.now = ctx.now;
  caching_ctx_.capacity = ctx.capacity;
  caching_ctx_.cached = &cached_values_;
  caching_ctx_.referenced = ref_value_;
  caching_ctx_.hit = hit_;
  caching_ctx_.history = &reference_history_;
  caching_policy_->Observe(caching_ctx_);
}

void ReductionJoinPolicy::HitRetainedIds(const PolicyContext& ctx,
                                         std::vector<TupleId>* ids) const {
  // Cache state is unchanged in the caching problem; in the joining
  // problem the dead tuple s_(v,i) is swapped for fresh s_(v,i+1).
  ids->clear();
  ids->reserve(ctx.cached->size());
  for (const Tuple& tuple : *ctx.cached) ids->push_back(tuple.id);
  (*ids)[static_cast<std::size_t>(ref_pos_)] = s_arrival_id_;
}

std::vector<TupleId> ReductionJoinPolicy::SelectRetained(
    const PolicyContext& ctx) {
  PrepareStep(ctx);

  std::vector<TupleId> retained_ids;
  if (hit_) {
    HitRetainedIds(ctx, &retained_ids);
    return retained_ids;
  }
  const std::vector<Value> retained_values =
      caching_policy_->SelectRetained(caching_ctx_);
  retained_ids.reserve(retained_values.size());
  for (Value v : retained_values) {
    if (v == ref_value_) {
      // The freshest supply tuple for the referenced value is the arrival.
      retained_ids.push_back(s_arrival_id_);
      continue;
    }
    const std::int32_t dense = reduction_->DenseOf(v);
    const std::int32_t pos =
        dense < 0 ? -1 : cached_pos_by_dense_[static_cast<std::size_t>(dense)];
    SJOIN_CHECK_MSG(pos >= 0,
                    "policy retained a value that is not a candidate");
    retained_ids.push_back((*ctx.cached)[static_cast<std::size_t>(pos)].id);
  }
  return retained_ids;
}

PolicyShardScoring* ReductionJoinPolicy::shard_scoring() {
  auto* scored = dynamic_cast<ScoredCachingPolicy*>(caching_policy_);
  if (scored == nullptr || !scored->ShardScorable() ||
      scored->has_score_observer()) {
    return nullptr;
  }
  shard_caching_ = scored;
  return this;
}

bool ReductionJoinPolicy::ShardBeginStep(const PolicyContext& ctx,
                                         std::vector<TupleId>* decided) {
  PrepareStep(ctx);
  if (!hit_) return true;  // Miss: rank the candidates shard-locally.
  // Hit: the caching problem keeps its cache verbatim; the joining side
  // swaps the dead tuple s_(v,i) for the fresh arrival s_(v,i+1). Nothing
  // is ranked, so the whole step is decided here.
  HitRetainedIds(ctx, decided);
  return false;
}

std::optional<ShardKey> ReductionJoinPolicy::ShardScoreCached(
    const Tuple& tuple, const PolicyContext& ctx, ShardScratch* scratch) {
  (void)ctx;
  (void)scratch;
  // The expired copy of the referenced value was dropped from the
  // candidate set (see PrepareStep); it must not be retained.
  if (tuple.id == dropped_id_) return std::nullopt;
  // Decode is a bounds-checked vector lookup — thread-safe. Cached
  // candidates are never the referenced value on the miss path, so
  // is-referenced (the major tie-break) is always 0 here.
  Value v = reduction_->Decode(tuple.value).first;
  return ShardKey{shard_caching_->ShardScore(v, caching_ctx_), 0, v};
}

std::optional<ShardKey> ReductionJoinPolicy::ShardScoreArrival(
    const Tuple& tuple, const PolicyContext& ctx) {
  (void)ctx;
  // Reference tuples are never cached (the "reasonable policy" rule);
  // the supply arrival carries the demand-fetched referenced value.
  if (tuple.side == StreamSide::kR) return std::nullopt;
  return ShardKey{shard_caching_->ShardScore(ref_value_, caching_ctx_), 1,
                  ref_value_};
}

void ReductionJoinPolicy::ShardEndStep(const PolicyContext& ctx,
                                       const std::vector<TupleId>& retained,
                                       const std::vector<TupleId>& evicted) {
  (void)ctx;
  (void)retained;  // SelectRetained has no epilogue to mirror.
  (void)evicted;
}

}  // namespace sjoin
