#ifndef SJOIN_ENGINE_SCORE_MEMO_H_
#define SJOIN_ENGINE_SCORE_MEMO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sjoin/common/types.h"

/// \file
/// Per-step memo of per-partner score subtotals (DESIGN.md §2f).
///
/// Every multi-way policy scores a candidate as a *sum over its partner
/// streams* of a per-partner subtotal that depends only on (partner,
/// value[, score horizon]) — for HEEB the Appendix C inner sum
/// Σ_Δt Pr{X^p = v} L(Δt), for PROB/LIFE the partner match frequency. The
/// N-way loop recomputes that subtotal for every candidate touching the
/// same (partner, value) pair; with a drifting value domain much narrower
/// than the candidate set, most lookups repeat. ScoreMemo caches the
/// subtotal for one step (predictions change every step, so entries are
/// epoch-stamped and die at BeginStep).
///
/// Bit-identity: policies must compute the subtotal per partner and sum
/// the subtotals in fixed partner order whether or not the memo is
/// attached. A memoized subtotal is the stored double itself, so serving
/// it back is exact — cached-on and cached-off runs score every tuple
/// bit-identically, which the multi_planner differential suite checks.

namespace sjoin {

/// One-step memo: (partner stream, value, horizon) -> score subtotal.
/// Not thread-safe; multi-way policies run serial-only.
class ScoreMemo {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };

  /// Sizes the memo for `num_streams` partner slots and clears everything
  /// (call from policy Reset / first step).
  void Reset(int num_streams);

  /// Invalidates every entry (constant time: bumps the epoch stamp).
  void BeginStep();

  /// True and `*out` filled when (partner, value) was stored this step
  /// with the same `max_dt`.
  bool Lookup(int partner, Value value, Time max_dt, double* out);

  /// Stores this step's subtotal for (partner, value, max_dt).
  void Store(int partner, Value value, Time max_dt, double subtotal);

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    Time max_dt = 0;
    double subtotal = 0.0;
  };

  std::uint64_t epoch_ = 0;
  std::vector<std::unordered_map<Value, Entry>> memo_;
  Stats stats_;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SCORE_MEMO_H_
