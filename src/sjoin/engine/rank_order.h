#ifndef SJOIN_ENGINE_RANK_ORDER_H_
#define SJOIN_ENGINE_RANK_ORDER_H_

/// \file
/// The repo-wide strict (score desc, major desc, minor desc) total order.
///
/// Every comparison sort in the retention path — the serial ScoredPolicy
/// selection, the sharded engine's per-shard runs and k-way merge, the
/// multi-way policies' ranked top-k, and the edge-budget spill — must rank
/// candidates by exactly the same order, or shard counts and policy
/// implementations would stop being bit-identical. This header is that
/// order's single definition; call sites bind (major, minor) to
/// (arrival time, tuple id) for the joining problem and to
/// (is-referenced, original value) for the Theorem 1 caching reduction.
///
/// With distinct `minor` values (tuple ids are unique; so are cached
/// values in the caching problem) the order is strict and total, which is
/// what makes top-k selection a pure function of the scores.
///
/// A NaN score ranks below every number (including -inf), and two NaN
/// scores fall through to the (major, minor) tie-break. Without that rule
/// NaN compares neither greater nor less than anything, the order stops
/// being a strict weak order, and nth_element, the per-shard sorts and the
/// merge cascade would each resolve it differently — results would change
/// with the shard count.

#include <cmath>

namespace sjoin {

/// True when (score_a, major_a, minor_a) ranks strictly better than
/// (score_b, major_b, minor_b): score descending, then major descending,
/// then minor descending. `Major` and `Minor` are any ordered integer
/// types; signedness must match between the two operands (the template
/// keeps Time/TupleId call sites from converting implicitly).
template <typename Major, typename Minor>
inline bool RankOrderBetter(double score_a, Major major_a, Minor minor_a,
                            double score_b, Major major_b, Minor minor_b) {
  // Ordered comparisons on the hot path; NaN is tested only once both
  // fail and the scores are unordered (at least one is NaN).
  if (score_a > score_b) return true;
  if (score_a < score_b) return false;
  if (score_a != score_b) {
    const bool nan_a = std::isnan(score_a);
    const bool nan_b = std::isnan(score_b);
    if (nan_a != nan_b) return nan_b;
  }
  if (major_a != major_b) return major_a > major_b;
  return minor_a > minor_b;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_RANK_ORDER_H_
