#include "harness/configs.h"

#include <cmath>
#include <cstdio>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/regime_switching_process.h"
#include "sjoin/stochastic/stationary_process.h"

namespace sjoin::bench {
namespace {

JoinWorkload MakeTrendWorkload(std::string name, double r_sd, double s_sd,
                               double r_lag, bool uniform) {
  JoinWorkload workload;
  workload.name = std::move(name);
  DiscreteDistribution r_noise =
      uniform ? DiscreteDistribution::BoundedUniform(-kRNoiseBound,
                                                     kRNoiseBound)
              : DiscreteDistribution::TruncatedDiscretizedNormal(
                    0.0, r_sd, -kRNoiseBound, kRNoiseBound);
  DiscreteDistribution s_noise =
      uniform ? DiscreteDistribution::BoundedUniform(-kSNoiseBound,
                                                     kSNoiseBound)
              : DiscreteDistribution::TruncatedDiscretizedNormal(
                    0.0, s_sd, -kSNoiseBound, kSNoiseBound);
  workload.r = std::make_unique<LinearTrendProcess>(1.0, -r_lag,
                                                    std::move(r_noise));
  workload.s =
      std::make_unique<LinearTrendProcess>(1.0, 0.0, std::move(s_noise));
  workload.life_window = kRNoiseBound + kSNoiseBound;
  // Section 5.3/5.4: crude average-lifetime estimate (wR + wS) / 2.
  workload.heeb_alpha = ExpLifetime::AlphaForAverageLifetime(
      static_cast<double>(kRNoiseBound + kSNoiseBound) / 2.0);
  workload.heeb_mode = HeebJoinPolicy::Mode::kTimeIncremental;
  workload.heeb_horizon = 150;
  return workload;
}

}  // namespace

JoinWorkload MakeTower(double r_lag, double s_sd_scale, bool equal_streams) {
  // equal_streams: start from identical statistical properties (sd 1 for
  // both) as in the Figure 14 study; r_lag and s_sd_scale then perturb one
  // property at a time. The paper's base TOWER uses sd (1, 2) and lag 1.
  double base_s_sd = equal_streams ? 1.0 : 2.0;
  return MakeTrendWorkload("TOWER", 1.0, base_s_sd * s_sd_scale, r_lag,
                           /*uniform=*/false);
}

JoinWorkload MakeRoof() {
  return MakeTrendWorkload("ROOF", 3.3, 5.0, 1.0, /*uniform=*/false);
}

JoinWorkload MakeFloor() {
  return MakeTrendWorkload("FLOOR", 0.0, 0.0, 1.0, /*uniform=*/true);
}

JoinWorkload MakeZipf(double s) {
  JoinWorkload workload;
  char name[32];
  std::snprintf(name, sizeof(name), "ZIPF%02d",
                static_cast<int>(std::lround(s * 10)));
  workload.name = name;
  // Both streams share the hot head, so hot values both dominate the
  // cache and join often — the per-shard load is as skewed as the pmf.
  auto pmf = DiscreteDistribution::Zipf(0, 63, s);
  workload.r = std::make_unique<StationaryProcess>(pmf);
  workload.s = std::make_unique<StationaryProcess>(pmf);
  // No noise-bound window exists for a stationary stream; give LIFE the
  // hot head's expected re-arrival scale instead.
  workload.life_window = 32;
  workload.heeb_alpha = ExpLifetime::AlphaForAverageLifetime(16.0);
  workload.heeb_mode = HeebJoinPolicy::Mode::kTimeIncremental;
  workload.heeb_horizon = 80;
  return workload;
}

JoinWorkload MakeBursty() {
  JoinWorkload workload;
  workload.name = "BURSTY";
  // 60-step bursts concentrated on an 8-value window at the top of the
  // domain, then 140 calm steps spread near-uniformly over all 64 values.
  std::vector<RegimeSwitchingProcess::Phase> phases;
  phases.push_back({DiscreteDistribution::Zipf(48, 55, 1.4), 60});
  phases.push_back({DiscreteDistribution::Zipf(0, 63, 0.2), 140});
  workload.r = std::make_unique<RegimeSwitchingProcess>(phases);
  workload.s = std::make_unique<RegimeSwitchingProcess>(std::move(phases));
  workload.life_window = 32;
  workload.heeb_alpha = ExpLifetime::AlphaForAverageLifetime(16.0);
  workload.heeb_mode = HeebJoinPolicy::Mode::kTimeIncremental;
  workload.heeb_horizon = 80;
  return workload;
}

JoinWorkload MakeRegime() {
  JoinWorkload workload;
  workload.name = "REGIME";
  // The hot window jumps across the domain every 150 steps; a partition
  // balanced for one regime is pinned by the next.
  std::vector<RegimeSwitchingProcess::Phase> phases;
  phases.push_back({DiscreteDistribution::Zipf(0, 15, 1.2), 150});
  phases.push_back({DiscreteDistribution::Zipf(24, 39, 1.2), 150});
  phases.push_back({DiscreteDistribution::Zipf(48, 63, 1.2), 150});
  workload.r = std::make_unique<RegimeSwitchingProcess>(phases);
  workload.s = std::make_unique<RegimeSwitchingProcess>(std::move(phases));
  workload.life_window = 32;
  workload.heeb_alpha = ExpLifetime::AlphaForAverageLifetime(16.0);
  workload.heeb_mode = HeebJoinPolicy::Mode::kTimeIncremental;
  workload.heeb_horizon = 80;
  return workload;
}

JoinWorkload MakeWalk() {
  JoinWorkload workload;
  workload.name = "WALK";
  auto step = DiscreteDistribution::DiscretizedNormal(0.0, 1.0);
  workload.r = std::make_unique<RandomWalkProcess>(step, 0);
  workload.s = std::make_unique<RandomWalkProcess>(step, 0);
  workload.life_window = 0;  // "there is no window" — LIFE inapplicable.
  workload.life_applicable = false;
  // Section 5.5: alpha set to the cache size; callers override per run.
  workload.heeb_alpha = 10.0;
  workload.alpha_tracks_cache = true;
  workload.heeb_mode = HeebJoinPolicy::Mode::kWalkTable;
  workload.heeb_horizon = 80;
  return workload;
}

}  // namespace sjoin::bench
