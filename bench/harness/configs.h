#ifndef SJOIN_BENCH_HARNESS_CONFIGS_H_
#define SJOIN_BENCH_HARNESS_CONFIGS_H_

#include <memory>
#include <string>

#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/stochastic/process.h"

/// \file
/// The paper's experiment configurations (Section 6.1).
///
/// TOWER / ROOF / FLOOR: independent linear trends drifting at speed 1, R
/// lagging one step behind S, zero-mean noise bounded to [-10, 10] for R
/// and [-15, 15] for S. TOWER uses bounded normal noise with sd (1, 2),
/// ROOF with sd (3.3, 5), FLOOR bounded uniform (Figure 7). WALK uses two
/// random walks with discretized N(0, 1) steps.

namespace sjoin::bench {

/// A two-stream joining workload plus the tuning the paper gives each
/// heuristic for it.
struct JoinWorkload {
  std::string name;
  std::unique_ptr<StochasticProcess> r;
  std::unique_ptr<StochasticProcess> s;
  /// Assumed tuple lifetime handed to RAND / PROB / LIFE ("we use the
  /// bound on the noise distribution as the sliding window").
  Time life_window = 0;
  /// L_exp parameter for HEEB (Section 5 guidance per scenario).
  double heeb_alpha = 10.0;
  /// The efficient HEEB mode applicable to this workload.
  HeebJoinPolicy::Mode heeb_mode = HeebJoinPolicy::Mode::kDirect;
  /// Sum-truncation horizon for HEEB.
  Time heeb_horizon = 120;
  /// Whether LIFE is applicable (not for WALK: "there is no window").
  bool life_applicable = true;
  /// Section 5.5: for random walks the paper sets alpha to the cache
  /// size; the runner overrides heeb_alpha per cache size when set.
  bool alpha_tracks_cache = false;
};

/// Noise bounds shared by the trend configurations.
inline constexpr Value kRNoiseBound = 10;
inline constexpr Value kSNoiseBound = 15;

/// TOWER with optional overrides: `r_lag` steps of R lag (paper default 1)
/// and a multiplier on S's noise standard deviation (Figure 14 uses 2 and
/// 4). `equal_streams` makes R and S identical (no lag, same sd), the
/// starting point of the memory-allocation study.
JoinWorkload MakeTower(double r_lag = 1.0, double s_sd_scale = 1.0,
                       bool equal_streams = false);

JoinWorkload MakeRoof();
JoinWorkload MakeFloor();
JoinWorkload MakeWalk();

/// Skewed workloads for the shard-skew rows of perf_smoke — not from the
/// paper, which only evaluates the trend/walk shapes above.
/// ZIPF: both streams stationary Zipf over a 64-value domain at exponent
/// `s` (0.8 mild, 1.2 a hot head the static hash pins onto one shard).
/// BURSTY: short hot phases of a narrow high-skew window alternating with
/// long calm near-uniform phases. REGIME: the Zipf hot window jumps to a
/// different value range each phase, so a partition balanced for one
/// phase is skewed for the next. All three are independent-step
/// processes, so time-incremental HEEB and the sharded scoring path
/// apply.
JoinWorkload MakeZipf(double s);
JoinWorkload MakeBursty();
JoinWorkload MakeRegime();

}  // namespace sjoin::bench

#endif  // SJOIN_BENCH_HARNESS_CONFIGS_H_
