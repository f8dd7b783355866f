#include "sjoin/core/heeb_join_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"
#include "sjoin/stochastic/stationary_process.h"
#include "sjoin/stochastic/stream_sampler.h"

namespace sjoin {
namespace {

// Shared fixture: a TOWER-like trend configuration.
struct TrendConfig {
  TrendConfig()
      : r(1.0, -1.0,
          DiscreteDistribution::TruncatedDiscretizedNormal(0, 2.0, -10, 10)),
        s(1.0, 0.0,
          DiscreteDistribution::TruncatedDiscretizedNormal(0, 3.0, -15,
                                                           15)) {}
  LinearTrendProcess r;
  LinearTrendProcess s;
};

std::int64_t RunHeeb(const TrendConfig& config, HeebJoinPolicy::Mode mode,
                     const std::vector<Value>& rv,
                     const std::vector<Value>& sv, std::size_t capacity) {
  HeebJoinPolicy::Options options;
  options.mode = mode;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
  options.horizon = 200;  // Generous so incremental drift is negligible.
  HeebJoinPolicy policy(&config.r, &config.s, options);
  JoinSimulator sim({.capacity = capacity, .warmup = 0});
  return sim.Run(rv, sv, policy).total_results;
}

// Property sweep: every efficient mode agrees with the direct definition,
// across seeds and cache sizes.
struct ModeSweepCase {
  HeebJoinPolicy::Mode mode;
  int seed;
  std::size_t cache;
};

class HeebModeEquivalenceTest
    : public ::testing::TestWithParam<ModeSweepCase> {};

TEST_P(HeebModeEquivalenceTest, MatchesDirect) {
  const ModeSweepCase& param = GetParam();
  TrendConfig config;
  Rng rng(static_cast<std::uint64_t>(param.seed));
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  auto direct = RunHeeb(config, HeebJoinPolicy::Mode::kDirect, pair.r,
                        pair.s, param.cache);
  auto mode_result =
      RunHeeb(config, param.mode, pair.r, pair.s, param.cache);
  EXPECT_EQ(direct, mode_result);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeebModeEquivalenceTest,
    ::testing::Values(
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 11, 8},
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 12, 3},
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 13, 15},
        ModeSweepCase{HeebJoinPolicy::Mode::kTimeIncremental, 14, 8},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 11, 8},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 12, 3},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 13, 15},
        ModeSweepCase{HeebJoinPolicy::Mode::kValueIncremental, 14, 8}));

TEST(HeebJoinPolicyTest, WindowedTimeIncrementalMatchesWindowedDirect) {
  // Section 7: the Corollary 3 recurrence carries over to sliding windows
  // unchanged (the window cap is a fixed absolute time); only the
  // arrival-time sum is truncated.
  TrendConfig config;
  Rng rng(15);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  HeebJoinPolicy::Options options;
  options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
  options.horizon = 200;
  JoinSimulator sim({.capacity = 8, .warmup = 0, .window = Time{15}});

  options.mode = HeebJoinPolicy::Mode::kDirect;
  HeebJoinPolicy direct(&config.r, &config.s, options);
  options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
  HeebJoinPolicy incremental(&config.r, &config.s, options);
  EXPECT_EQ(sim.Run(pair.r, pair.s, direct).total_results,
            sim.Run(pair.r, pair.s, incremental).total_results);
}

TEST(HeebJoinPolicyTest, IncrementalAdvanceDeterministicAcrossReruns) {
  // The Corollary 3 sweep iterates the flat slot array and periodically
  // re-anchors through the refresh interval; rerunning the same inputs
  // must reproduce the exact same per-tuple scores — slot storage order
  // is an implementation detail that may not leak into results.
  TrendConfig config;
  Rng rng(31);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  auto run_once = [&](std::vector<std::pair<TupleId, double>>* trace) {
    HeebJoinPolicy::Options options;
    options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
    options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
    options.horizon = 200;
    options.refresh_interval = 4;  // Exercise the re-anchor path often.
    HeebJoinPolicy policy(&config.r, &config.s, options);
    policy.set_score_observer([trace](const Tuple& tuple, double score) {
      trace->emplace_back(tuple.id, score);
    });
    JoinSimulator sim({.capacity = 8, .warmup = 0});
    return sim.Run(pair.r, pair.s, policy).total_results;
  };
  std::vector<std::pair<TupleId, double>> first;
  std::vector<std::pair<TupleId, double>> second;
  auto first_total = run_once(&first);
  auto second_total = run_once(&second);
  EXPECT_EQ(first_total, second_total);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << "score " << i;
    EXPECT_EQ(first[i].second, second[i].second) << "score " << i;
  }
}

TEST(HeebJoinPolicyTest, WalkTableMatchesDirect) {
  RandomWalkProcess r(DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  RandomWalkProcess s(DiscreteDistribution::DiscretizedNormal(0.0, 1.0), 0);
  Rng rng(13);
  auto pair = SampleStreamPair(r, s, 200, rng);

  HeebJoinPolicy::Options options;
  options.alpha = 10.0;
  options.horizon = 60;

  options.mode = HeebJoinPolicy::Mode::kDirect;
  HeebJoinPolicy direct(&r, &s, options);
  options.mode = HeebJoinPolicy::Mode::kWalkTable;
  HeebJoinPolicy table(&r, &s, options);

  JoinSimulator sim({.capacity = 6, .warmup = 0});
  EXPECT_EQ(sim.Run(pair.r, pair.s, direct).total_results,
            sim.Run(pair.r, pair.s, table).total_results);
}

TEST(HeebJoinPolicyTest, StationaryHeebBehavesLikeProb) {
  // Section 5.2: stationary streams; HEEB must keep the tuples whose
  // values are most probable in the partner stream.
  auto dist = DiscreteDistribution::FromMasses(0, {0.6, 0.3, 0.1});
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  HeebJoinPolicy::Options options;
  options.alpha = 8.0;
  HeebJoinPolicy policy(&r, &s, options);

  StreamHistory history_r({0, 2});
  StreamHistory history_s({1, 2});
  std::vector<Tuple> cached = {{0, StreamSide::kR, 0, 0},
                               {1, StreamSide::kS, 1, 0}};
  std::vector<Tuple> arrivals = {{2, StreamSide::kR, 2, 1},
                                 {3, StreamSide::kS, 2, 1}};
  PolicyContext ctx;
  ctx.now = 1;
  ctx.capacity = 2;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 2u);
  // Values 0 (p=0.6) and 1 (p=0.3) beat the two value-2 tuples (p=0.1).
  EXPECT_TRUE((retained[0] == 0 && retained[1] == 1) ||
              (retained[0] == 1 && retained[1] == 0));
}

TEST(HeebJoinPolicyTest, SlidingWindowSection7Example) {
  // Section 7: stationary streams; three candidates
  //   x1: p = 0.50, remaining life 1
  //   x2: p = 0.49, remaining life 50
  //   x3: p = 0.01, remaining life 51
  // PROB prefers x1 > x2; LIFE prefers x3 > x1; windowed HEEB should rank
  // x2 > x1 > x3.
  std::vector<double> masses(100, 0.0);
  masses[1] = 0.50;
  masses[2] = 0.49;
  masses[3] = 0.01;
  auto dist = DiscreteDistribution::FromMasses(0, masses);
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  HeebJoinPolicy::Options options;
  options.alpha = 10.0;
  options.horizon = 200;
  HeebJoinPolicy policy(&r, &s, options);

  constexpr Time kWindow = 51;
  constexpr Time kNow = 50;
  StreamHistory history_r(std::vector<Value>(kNow + 1, 99));
  StreamHistory history_s(std::vector<Value>(kNow + 1, 99));
  // Remaining life = arrival + window - now.
  std::vector<Tuple> cached = {{0, StreamSide::kR, 1, 0},    // x1: life 1.
                               {1, StreamSide::kR, 2, 49}};  // x2: life 50.
  std::vector<Tuple> arrivals = {{2, StreamSide::kR, 3, 50},  // x3: life 51.
                                 {3, StreamSide::kS, 99, 50}};
  PolicyContext ctx;
  ctx.now = kNow;
  ctx.capacity = 1;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  ctx.window = kWindow;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0], 1u);  // x2 wins.

  // Widen the capacity to observe the full ranking.
  ctx.capacity = 2;
  retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0], 1u);  // x2 first.
  EXPECT_EQ(retained[1], 0u);  // then x1; x3 loses.
}

TEST(HeebJoinPolicyTest, ExpiredTuplesScoreZero) {
  auto dist = DiscreteDistribution::FromMasses(0, {0.5, 0.5});
  StationaryProcess r(dist);
  StationaryProcess s(dist);
  HeebJoinPolicy::Options options;
  options.alpha = 5.0;
  HeebJoinPolicy policy(&r, &s, options);

  StreamHistory history_r({0, 0, 0});
  StreamHistory history_s({0, 0, 0});
  std::vector<Tuple> cached = {{0, StreamSide::kR, 0, 0}};  // Expired.
  std::vector<Tuple> arrivals = {{4, StreamSide::kR, 0, 2},
                                 {5, StreamSide::kS, 7, 2}};  // 7: p = 0.
  PolicyContext ctx;
  ctx.now = 2;
  ctx.capacity = 1;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  ctx.window = 1;
  auto retained = policy.SelectRetained(ctx);
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0], 4u);  // Fresh value-0 tuple beats the expired one.
}

TEST(HeebJoinPolicyTest, BeatsProbOnTrendingStreams) {
  // The paper's headline: with a trend, HEEB over statistically-informed
  // predictions outperforms history-frequency heuristics.
  TrendConfig config;
  Rng rng(21);
  std::int64_t heeb_total = 0;
  std::int64_t prob_total = 0;
  for (int run = 0; run < 3; ++run) {
    auto pair = SampleStreamPair(config.r, config.s, 400, rng);
    heeb_total +=
        RunHeeb(config, HeebJoinPolicy::Mode::kDirect, pair.r, pair.s, 10);
    ProbPolicy prob;
    JoinSimulator sim({.capacity = 10, .warmup = 0});
    prob_total += sim.Run(pair.r, pair.s, prob).total_results;
  }
  EXPECT_GT(heeb_total, prob_total);
}


// Forwards to a process and counts every Predict/PredictInto call.
class CountingProcess final : public StochasticProcess {
 public:
  explicit CountingProcess(const StochasticProcess* inner) : inner_(inner) {}
  DiscreteDistribution Predict(const StreamHistory& history,
                               Time t) const override {
    ++calls;
    return inner_->Predict(history, t);
  }
  void PredictInto(const StreamHistory& history, Time t,
                   DiscreteDistribution* out) const override {
    ++calls;
    inner_->PredictInto(history, t, out);
  }
  Value SampleNext(const StreamHistory& history, Rng& rng) const override {
    return inner_->SampleNext(history, rng);
  }
  bool IsIndependent() const override { return inner_->IsIndependent(); }
  std::unique_ptr<StochasticProcess> Clone() const override {
    return inner_->Clone();
  }

  mutable std::int64_t calls = 0;

 private:
  const StochasticProcess* inner_;
};

// Runs the wrapped HEEB through the serial engine and audits every step:
// the predictions it made (`first_step_calls` on the first step,
// `step_calls` on every later one), and, for the incremental modes, its
// state against the ids it retained.
class StepAuditPolicy final : public ReplacementPolicy {
 public:
  StepAuditPolicy(HeebJoinPolicy* heeb, const CountingProcess* r,
                  const CountingProcess* s, std::int64_t first_step_calls,
                  std::int64_t step_calls, bool audit_state)
      : heeb_(heeb),
        r_(r),
        s_(s),
        first_step_calls_(first_step_calls),
        step_calls_(step_calls),
        audit_state_(audit_state) {}

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    const std::int64_t before = r_->calls + s_->calls;
    std::vector<TupleId> retained = heeb_->SelectRetained(ctx);
    const bool first = last_now_ < 0;
    if (!first) {
      EXPECT_EQ(ctx.now - last_now_, 1) << "step " << ctx.now;
    }
    last_now_ = ctx.now;
    EXPECT_EQ(r_->calls + s_->calls - before,
              first ? first_step_calls_ : step_calls_)
        << "step " << ctx.now << " with " << ctx.cached->size()
        << " cached tuples";
    if (audit_state_) {
      EXPECT_EQ(heeb_->num_states(), retained.size()) << "step " << ctx.now;
      for (TupleId id : retained) {
        EXPECT_TRUE(heeb_->HasState(id)) << "step " << ctx.now;
      }
    }
    max_cached = std::max(max_cached, ctx.cached->size());
    return retained;
  }
  bool WantsCandidateBatch() const override {
    return heeb_->WantsCandidateBatch();
  }
  const char* name() const override { return "HEEB-audit"; }

  std::size_t max_cached = 0;

 private:
  HeebJoinPolicy* heeb_;
  const CountingProcess* r_;
  const CountingProcess* s_;
  std::int64_t first_step_calls_;
  std::int64_t step_calls_;
  bool audit_state_;
  Time last_now_ = -1;
};

TEST(HeebJoinPolicyTest, TimeIncrementalStepPredictsIndependentOfCacheSize) {
  // The paper's TOWER (Section 6.1). Both streams are independent, so the
  // prediction ring builds the window [now, now + horizon] once per side
  // and then predicts one new time per side and step; the Corollary 3
  // advance reads the ring's entry for now, and the arrivals' direct sums
  // read the rest. No step predicts per cached tuple, and the epilogue
  // leaves state for exactly the retained ids. A SJOIN_VALIDATE build
  // re-predicts the window's two ends per side on every reusing advance.
  LinearTrendProcess tower_r(
      1.0, -1.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.0, -10, 10));
  LinearTrendProcess tower_s(
      1.0, 0.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -15, 15));
  Rng rng(21);
  auto pair = SampleStreamPair(tower_r, tower_s, 700, rng);
  for (std::size_t capacity : {std::size_t{20}, std::size_t{400}}) {
    CountingProcess r(&tower_r);
    CountingProcess s(&tower_s);
    HeebJoinPolicy::Options options;
    options.mode = HeebJoinPolicy::Mode::kTimeIncremental;
    options.alpha = ExpLifetime::AlphaForAverageLifetime(12.5);
    options.horizon = 150;
    HeebJoinPolicy heeb(&r, &s, options);
    StepAuditPolicy audit(&heeb, &r, &s, 2 * (options.horizon + 1),
                          2 + (kValidationEnabled ? 4 : 0),
                          /*audit_state=*/true);
    JoinSimulator sim({.capacity = capacity, .warmup = 0});
    sim.Run(pair.r, pair.s, audit);
    // The large cache must actually fill for the count to mean anything.
    EXPECT_GE(audit.max_cached, capacity * 3 / 4) << "capacity " << capacity;
  }
}

TEST(HeebJoinPolicyTest, DirectStepRepredictsHistoryDependentStreams) {
  // A random walk's pmf of X_T depends on the last observed value, so the
  // ring keeps nothing across steps: every kDirect step predicts the
  // whole horizon for both sides, whatever the cache size.
  RandomWalkProcess walk_r(DiscreteDistribution::DiscretizedNormal(0.0, 1.0),
                           0);
  RandomWalkProcess walk_s(DiscreteDistribution::DiscretizedNormal(0.0, 1.0),
                           0);
  Rng rng(22);
  auto pair = SampleStreamPair(walk_r, walk_s, 200, rng);
  for (std::size_t capacity : {std::size_t{5}, std::size_t{50}}) {
    CountingProcess r(&walk_r);
    CountingProcess s(&walk_s);
    HeebJoinPolicy::Options options;
    options.mode = HeebJoinPolicy::Mode::kDirect;
    options.alpha = 5.0;
    options.horizon = 40;
    HeebJoinPolicy heeb(&r, &s, options);
    StepAuditPolicy audit(&heeb, &r, &s, 2 * options.horizon,
                          2 * options.horizon, /*audit_state=*/false);
    JoinSimulator sim({.capacity = capacity, .warmup = 0});
    sim.Run(pair.r, pair.s, audit);
    EXPECT_GE(audit.max_cached, capacity * 3 / 4) << "capacity " << capacity;
  }
}


// Commits a cache other than HEEB's own choice on odd steps (the first
// `capacity` candidates in candidate order), the way a wrapper policy or a
// lockstep harness may, and checks HEEB's state after every step.
class OverrulingPolicy final : public ReplacementPolicy {
 public:
  explicit OverrulingPolicy(HeebJoinPolicy* heeb) : heeb_(heeb) {}

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> retained = heeb_->SelectRetained(ctx);
    EXPECT_EQ(heeb_->num_states(), retained.size()) << "step " << ctx.now;
    for (TupleId id : retained) {
      EXPECT_TRUE(heeb_->HasState(id)) << "step " << ctx.now;
    }
    if (ctx.now % 2 == 0) return retained;
    std::vector<TupleId> overruled;
    for (const auto* tuples : {ctx.cached, ctx.arrivals}) {
      for (const Tuple& tuple : *tuples) {
        if (overruled.size() < ctx.capacity) overruled.push_back(tuple.id);
      }
    }
    return overruled;
  }
  const char* name() const override { return "HEEB-overruled"; }

 private:
  HeebJoinPolicy* heeb_;
};

TEST(HeebJoinPolicyTest, IncrementalStateFollowsAnOverruledCache) {
  TrendConfig config;
  Rng rng(23);
  auto pair = SampleStreamPair(config.r, config.s, 300, rng);
  for (HeebJoinPolicy::Mode mode : {HeebJoinPolicy::Mode::kTimeIncremental,
                                    HeebJoinPolicy::Mode::kValueIncremental}) {
    HeebJoinPolicy::Options options;
    options.mode = mode;
    options.alpha = ExpLifetime::AlphaForAverageLifetime(12.0);
    HeebJoinPolicy heeb(&config.r, &config.s, options);
    OverrulingPolicy overruling(&heeb);
    JoinSimulator sim({.capacity = 10, .warmup = 0});
    sim.Run(pair.r, pair.s, overruling);
  }
}

}  // namespace
}  // namespace sjoin
