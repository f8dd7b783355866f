#ifndef SJOIN_ENGINE_RANKED_SELECT_H_
#define SJOIN_ENGINE_RANKED_SELECT_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/rank_order.h"

/// \file
/// The repo's one top-k ranking routine, and the (score, arrival, id)
/// candidate the joining policies rank with it.
///
/// Every retention ranking — ScoredPolicy, ScoredCachingPolicy, the
/// multi-way policies, the edge-budget policy and the sharded engine's
/// per-shard runs — goes through RankTopK under a rank_order.h strict
/// total order, so each yields the same unique retained sequence.

namespace sjoin {

/// Insertion moves RankTopK may spend per candidate passed before it falls
/// back to nth_element + prefix sort. Nearly ranked input (a cache
/// committed in last step's rank order plus a few arrivals) stays within
/// it: HEEB on TOWER at k = 200 spends about 2.5 moves per candidate, most
/// of them shifting the prefix for its two arrivals. Fresh random scores
/// spend about i/2 moves at candidate i, i²/4 in all by then, so they
/// overrun the budget near i = 16 and the detour costs about 70 moves
/// whatever the range size.
inline constexpr std::size_t kRankMovesPerCandidate = 4;

/// Moves the best `keep` elements of [first, last) to the front, ranked
/// best first under the strict total order `better`; the rest follow in
/// unspecified order. `keep` larger than the range ranks all of it.
///
/// Adaptive: an insertion pass keeps a ranked prefix of at most `keep`
/// elements. An element that does not beat the prefix's last costs one
/// comparison; one that does is inserted, and when the prefix is full the
/// displaced last element takes its slot. Once the pass has spent more
/// than kRankMovesPerCandidate moves per candidate passed — O(n) in all —
/// it stops and the range takes the nth_element + prefix sort path
/// instead. Under a strict total order both paths produce the same
/// prefix, so the choice never changes a result.
template <typename It, typename Better>
void RankTopK(It first, It last, std::size_t keep, Better better) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  keep = std::min(keep, n);
  if (keep == 0) return;
  std::size_t moves = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t tail = std::min(i, keep) - 1;  // Prefix's last.
    if (!better(first[i], first[tail])) continue;
    if (moves > kRankMovesPerCandidate * i) {
      if (keep < n) std::nth_element(first, first + keep, last, better);
      std::sort(first, first + keep, better);
      break;
    }
    auto entry = std::move(first[i]);
    first[i] = std::move(first[tail]);
    std::size_t hole = tail;
    while (hole > 0 && better(entry, first[hole - 1])) {
      first[hole] = std::move(first[hole - 1]);
      --hole;
    }
    first[hole] = std::move(entry);
    moves += tail - hole + 1;
  }
  if constexpr (kValidationEnabled) {
    for (std::size_t i = 1; i < keep; ++i) {
      SJOIN_VALIDATE_MSG(better(first[i - 1], first[i]),
                         "ranked prefix out of rank order");
    }
    for (std::size_t i = keep; i < n; ++i) {
      SJOIN_VALIDATE_MSG(better(first[keep - 1], first[i]),
                         "an evicted candidate outranks a kept one");
    }
  }
}

/// One scored retention candidate.
struct RankedTuple {
  double score = 0.0;
  Time arrival = 0;
  TupleId id = 0;
};

/// The rank_order.h strict total order over RankedTuples.
inline bool RankedTupleBetter(const RankedTuple& a, const RankedTuple& b) {
  return RankOrderBetter(a.score, a.arrival, a.id, b.score, b.arrival, b.id);
}

/// RankTopK over RankedTuples. The comparator is a lambda so the ranking
/// loops inline it (a function pointer would cost a call per comparison).
inline void RankTuples(std::vector<RankedTuple>& ranked, std::size_t keep) {
  RankTopK(ranked.begin(), ranked.end(), keep,
           [](const RankedTuple& a, const RankedTuple& b) {
             return RankedTupleBetter(a, b);
           });
}

/// Best `capacity` ids, ranked by (score desc, arrival desc, id desc).
inline std::vector<TupleId> KeepBestRanked(std::vector<RankedTuple> ranked,
                                           std::size_t capacity) {
  const std::size_t keep = std::min(capacity, ranked.size());
  RankTuples(ranked, keep);
  std::vector<TupleId> retained;
  retained.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) retained.push_back(ranked[i].id);
  return retained;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_RANKED_SELECT_H_
