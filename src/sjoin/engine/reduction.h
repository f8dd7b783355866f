#ifndef SJOIN_ENGINE_REDUCTION_H_
#define SJOIN_ENGINE_REDUCTION_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/caching_policy.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/scored_caching_policy.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The caching → joining reduction of Section 2 / Theorem 1.
///
/// Given a reference sequence R, construct a "supply" stream S carrying the
/// joining database tuples, with join attribute values tweaked so that
/// neither stream contains duplicates: the i-th occurrence of value v
/// becomes the pair (v, i-1) in R and (v, i) in S. Running the joining
/// problem on (R', S') under a reasonable policy produces exactly as many
/// result tuples as the original caching problem produces hits.
///
/// This adapter is not just a theorem check: since the StreamEngine
/// unification, CacheSimulator itself runs through it, so every caching
/// policy executes on the same step loop as the joining policies.

namespace sjoin {

/// Builds and owns the transformed streams. Pairs (v, i) are interned into
/// fresh scalar Values so the generic joining machinery applies unchanged.
class CachingReduction {
 public:
  explicit CachingReduction(std::vector<Value> references);

  /// Encoded transformed streams, one entry per original reference.
  const std::vector<Value>& r_stream() const { return r_stream_; }
  const std::vector<Value>& s_stream() const { return s_stream_; }

  /// Original reference sequence.
  const std::vector<Value>& references() const { return references_; }

  /// Encoded id of pair (v, occurrence); aborts if the pair never occurs in
  /// either transformed stream.
  Value Encode(Value v, std::int64_t occurrence) const;

  /// Inverse of Encode.
  std::pair<Value, std::int64_t> Decode(Value encoded) const;

  // Dense value ids: each distinct original value gets an id in
  // [0, num_values()), in order of first reference, so per-step lookups by
  // value can index flat arrays.

  /// Number of distinct original values.
  std::size_t num_values() const { return dense_of_value_.size(); }

  /// Dense id of original value `v`, or -1 when `v` is never referenced.
  std::int32_t DenseOf(Value v) const;

  /// Dense id of the original value an encoded pair carries
  /// (bounds-checked vector lookup, like Decode).
  std::int32_t DenseOfEncoded(Value encoded) const;

 private:
  std::vector<Value> references_;
  std::vector<Value> r_stream_;
  std::vector<Value> s_stream_;
  std::map<std::pair<Value, std::int64_t>, Value> encode_;
  std::vector<std::pair<Value, std::int64_t>> decode_;
  /// Dense id per encoded value (parallel to decode_).
  std::vector<std::int32_t> dense_of_encoded_;
  std::unordered_map<Value, std::int32_t> dense_of_value_;
};

/// Adapts a caching policy to the joining problem over the transformed
/// streams, following the "reasonable policy" discipline of Theorem 1:
/// reference-stream tuples are never cached, and the superseded supply
/// tuple s_(v,i) is replaced by s_(v,i+1) when the latter arrives.
///
/// Window-aware: under a sliding window, a cached supply tuple whose age
/// exceeds the window no longer serves hits (the cached copy has gone
/// stale, TTL semantics); the caching policy then sees a miss and decides
/// whether to refetch. A hit swaps in the fresh supply arrival, so every
/// hit refreshes the TTL — exactly the joining-side window semantics of
/// Section 7 carried through the reduction.
class ReductionJoinPolicy final : public ReplacementPolicy,
                                  public PolicyShardScoring {
 public:
  /// Neither pointer is owned; both must outlive the policy.
  ReductionJoinPolicy(const CachingReduction* reduction,
                      CachingPolicy* caching_policy);

  void Reset() override;

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override;

  /// Sharded execution, available when the caching policy is a
  /// shard-scorable ScoredCachingPolicy without a score observer. A hit is
  /// fully decided in ShardBeginStep (cache order is preserved, nothing is
  /// ranked); on a miss the candidates are scored shard-locally with merge
  /// keys (score, is-referenced, original value) — exactly the caching
  /// comparator, so the merged top-k is bit-identical to SelectRetained.
  PolicyShardScoring* shard_scoring() override;
  bool ShardBeginStep(const PolicyContext& ctx,
                      std::vector<TupleId>* decided) override;
  std::optional<ShardKey> ShardScoreCached(const Tuple& tuple,
                                           const PolicyContext& ctx,
                                           ShardScratch* scratch) override;
  std::optional<ShardKey> ShardScoreArrival(const Tuple& tuple,
                                            const PolicyContext& ctx) override;
  void ShardEndStep(const PolicyContext& ctx,
                    const std::vector<TupleId>& retained,
                    const std::vector<TupleId>& evicted) override;

  const char* name() const override { return "REDUCED"; }

 private:
  /// Shared step prefix of SelectRetained and ShardBeginStep: decodes the
  /// arrivals and the cached supply tuples, determines hit/miss, drops the
  /// dead expired copy on a windowed miss, and notifies the caching policy
  /// — leaving the members below describing the step.
  void PrepareStep(const PolicyContext& ctx);

  /// Hit: the cached ids in cache order, with the fresh supply arrival in
  /// place of the referenced value's dead tuple.
  void HitRetainedIds(const PolicyContext& ctx,
                      std::vector<TupleId>* ids) const;

  const CachingReduction* reduction_;
  CachingPolicy* caching_policy_;
  StreamHistory reference_history_;

  // Step state filled by PrepareStep (reused across steps).
  /// Cache position of each dense value id; -1 when not cached. Sized once
  /// at construction; PrepareStep resets only the entries it set last.
  std::vector<std::int32_t> cached_pos_by_dense_;
  /// Dense ids of this step's cached tuples, in cache order.
  std::vector<std::int32_t> cached_dense_;
  std::vector<Value> cached_values_;
  /// Cache position of the referenced value, or -1 when not cached.
  std::int32_t ref_pos_ = -1;
  CachingContext caching_ctx_;
  Value ref_value_ = 0;
  bool hit_ = false;
  TupleId s_arrival_id_ = 0;
  /// Id of the expired cached copy dropped from the candidate set on a
  /// windowed miss; -1 when none.
  TupleId dropped_id_ = -1;
  /// Caching policy when it supports sharded scoring (set by
  /// shard_scoring()).
  ScoredCachingPolicy* shard_caching_ = nullptr;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_REDUCTION_H_
