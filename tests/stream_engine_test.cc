// The unified StreamEngine core: direct construction must be
// indistinguishable from the JoinSimulator / MultiJoinSimulator façades
// (totals, telemetry, composition traces) and observers must compose.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/multi/multi_join_simulator.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_policy.h"

namespace sjoin {
namespace {

std::vector<Value> SampleValues(Time len, Value domain, Rng& rng) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    out.push_back(rng.UniformInt(0, domain - 1));
  }
  return out;
}

/// Deterministic engine policy usable on any topology: keep the
/// highest-id candidates (i.e. the newest tuples, ties broken by stream).
class KeepNewestEnginePolicy final : public EnginePolicy {
 public:
  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    std::vector<TupleId> ids;
    ids.reserve(ctx.cached->size() + ctx.arrivals->size());
    for (const StreamTuple& tuple : *ctx.cached) ids.push_back(tuple.id);
    for (const StreamTuple& tuple : *ctx.arrivals) ids.push_back(tuple.id);
    std::sort(ids.begin(), ids.end(), std::greater<TupleId>());
    if (ids.size() > ctx.capacity) ids.resize(ctx.capacity);
    return ids;
  }
  const char* name() const override { return "keep-newest"; }
};

/// Runs the same realization through the JoinSimulator façade and through
/// a hand-built StreamEngine + BinaryPolicyAdapter + observer chain, and
/// expects bit-identical results. `policy.Reset()` must restore any
/// internal randomness (all repo policies do).
void ExpectFacadeMatchesDirect(const JoinSimulator::Options& options,
                               const std::vector<Value>& r,
                               const std::vector<Value>& s,
                               ReplacementPolicy& policy) {
  JoinRunResult facade = JoinSimulator(options).Run(r, s, policy);

  StreamEngine engine(StreamTopology::Binary(),
                      {.capacity = options.capacity,
                       .warmup = options.warmup,
                       .window = options.window});
  BinaryPolicyAdapter adapter(&policy);
  PerfObserver perf;
  std::vector<double> fractions;
  CacheCompositionObserver composition(0, &fractions);
  ValidationObserver validation;
  EngineRunResult direct = engine.Run(
      {&r, &s}, adapter, {&perf, &composition, &validation});

  EXPECT_EQ(facade.total_results, direct.total_results);
  EXPECT_EQ(facade.counted_results, direct.counted_results);
  EXPECT_EQ(facade.telemetry.peak_candidates,
            perf.telemetry().peak_candidates);
  EXPECT_EQ(facade.telemetry.steps, perf.telemetry().steps);
  if (options.track_cache_composition) {
    EXPECT_EQ(facade.r_fraction_by_time, fractions);
  }
}

TEST(StreamEngineTest, BinaryFacadeMatchesDirectEngine) {
  Rng rng(7);
  for (std::size_t capacity : {std::size_t{3}, std::size_t{40}}) {
    for (int windowed = 0; windowed < 2; ++windowed) {
      std::vector<Value> r = SampleValues(300, 12, rng);
      std::vector<Value> s = SampleValues(300, 12, rng);
      JoinSimulator::Options options;
      options.capacity = capacity;
      options.warmup = 20;
      if (windowed != 0) options.window = 9;
      options.track_cache_composition = true;

      RandomPolicy random(11, std::nullopt);
      ExpectFacadeMatchesDirect(options, r, s, random);
      ProbPolicy prob;
      ExpectFacadeMatchesDirect(options, r, s, prob);
    }
  }
}

TEST(StreamEngineTest, MultiFacadeMatchesDirectEngine) {
  Rng rng(29);
  std::vector<std::vector<Value>> streams;
  for (int s = 0; s < 3; ++s) streams.push_back(SampleValues(200, 6, rng));
  std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}, {0, 2}};

  MultiJoinSimulator::Options options;
  options.capacity = 5;
  options.warmup = 10;
  KeepNewestEnginePolicy policy;
  MultiJoinRunResult facade =
      MultiJoinSimulator(3, edges, options).Run(streams, policy);

  StreamEngine engine(StreamTopology(3, edges),
                      {.capacity = options.capacity,
                       .warmup = options.warmup});
  PerfObserver perf;
  ValidationObserver validation;
  EngineRunResult direct =
      engine.Run({&streams[0], &streams[1], &streams[2]}, policy,
                 {&perf, &validation});

  EXPECT_EQ(facade.total_results, direct.total_results);
  EXPECT_EQ(facade.counted_results, direct.counted_results);
  EXPECT_EQ(facade.telemetry.peak_candidates,
            perf.telemetry().peak_candidates);
  EXPECT_EQ(facade.telemetry.steps, perf.telemetry().steps);
}

TEST(StreamEngineTest, EngineIsReusableAcrossRuns) {
  Rng rng(41);
  std::vector<Value> r = SampleValues(150, 8, rng);
  std::vector<Value> s = SampleValues(150, 8, rng);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);
  StreamEngine engine(StreamTopology::Binary(), {.capacity = 6, .warmup = 8});
  EngineRunResult first = engine.Run({&r, &s}, adapter);
  EngineRunResult second = engine.Run({&r, &s}, adapter);
  EXPECT_EQ(first.total_results, second.total_results);
  EXPECT_EQ(first.counted_results, second.counted_results);
}

TEST(StreamEngineTest, PerfObserverCountsStepsAndPeakCandidates) {
  std::vector<Value> r{1, 2, 3, 4, 5};
  std::vector<Value> s{1, 2, 3, 4, 5};
  KeepNewestEnginePolicy policy;
  StreamEngine engine(StreamTopology::Binary(), {.capacity = 2});
  PerfObserver perf;
  engine.Run({&r, &s}, policy, {&perf});
  EXPECT_EQ(perf.telemetry().steps, 5);
  // Step 0 offers the two arrivals; every later step offers a full cache
  // of 2 plus the two arrivals.
  EXPECT_EQ(perf.telemetry().peak_candidates, 4);
  EXPECT_GE(perf.telemetry().run_ns, 0);
}

TEST(StreamEngineTest, CacheCompositionObserverTracksStreamFractions) {
  // R and S never join (disjoint values); keep-newest retains one R and
  // one S tuple every step after the first, so the R fraction settles at
  // exactly one half.
  std::vector<Value> r{0, 0, 0, 0};
  std::vector<Value> s{1, 1, 1, 1};
  KeepNewestEnginePolicy policy;
  StreamEngine engine(StreamTopology::Binary(), {.capacity = 2});
  std::vector<double> fractions;
  CacheCompositionObserver composition(0, &fractions);
  engine.Run({&r, &s}, policy, {&composition});
  ASSERT_EQ(fractions.size(), 4u);
  for (double f : fractions) EXPECT_DOUBLE_EQ(f, 0.5);
}

TEST(StreamEngineTest, ScoreTraceObserverRecordsEveryDecision) {
  std::vector<Value> r{1, 2, 1, 3};
  std::vector<Value> s{2, 1, 3, 1};
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);
  StreamEngine engine(StreamTopology::Binary(), {.capacity = 2});
  ScoreTraceObserver trace(&prob);
  engine.Run({&r, &s}, adapter, {&trace});

  // Step 0 scores the 2 arrivals; steps 1..3 score 2 cached + 2 arrivals.
  ASSERT_EQ(trace.samples().size(), 2u + 3u * 4u);
  EXPECT_EQ(trace.samples().front().step, 0);
  EXPECT_EQ(trace.samples().back().step, 3);
  for (const ScoreSample& sample : trace.samples()) {
    EXPECT_GE(sample.step, 0);
    EXPECT_LT(sample.step, 4);
    EXPECT_GE(sample.id, 0);
    EXPECT_LT(sample.id, 8);
  }
  // The trace detaches at run end: further decisions record nothing.
  std::size_t recorded = trace.samples().size();
  JoinSimulator sim({.capacity = 2});
  sim.Run(r, s, prob);
  EXPECT_EQ(trace.samples().size(), recorded);
}

TEST(StreamEngineTest, TopologyExposesPartnersAndEdges) {
  StreamTopology binary = StreamTopology::Binary();
  EXPECT_EQ(binary.num_streams(), 2);
  ASSERT_EQ(binary.PartnersOf(0).size(), 1u);
  EXPECT_EQ(binary.PartnersOf(0)[0], 1);
  EXPECT_TRUE(binary.Joins(0, 1));
  EXPECT_TRUE(binary.Joins(1, 0));
  EXPECT_FALSE(binary.Joins(0, 0));

  StreamTopology path(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(path.PartnersOf(1).size(), 2u);
  EXPECT_FALSE(path.Joins(0, 2));
}

TEST(StreamEngineTest, WindowLimitsJoinPairs) {
  // R emits value 5 once; S emits 5 every step and keep-newest always
  // caches the R tuple. Without a window every later S arrival joins it;
  // with window w the R tuple only joins for w more steps.
  std::vector<Value> r{5, 0, 0, 0, 0, 0, 0, 0};
  std::vector<Value> s{9, 5, 5, 5, 5, 5, 5, 5};
  KeepNewestEnginePolicy keep;

  class KeepFirstR final : public EnginePolicy {
   public:
    std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
      return {0};  // StreamTupleIdAt(2, 0, 0): R's tuple from time 0.
    }
    const char* name() const override { return "keep-first-r"; }
  } keep_first;

  StreamEngine unwindowed(StreamTopology::Binary(), {.capacity = 1});
  EXPECT_EQ(unwindowed.Run({&r, &s}, keep_first).total_results, 7);

  StreamEngine windowed(StreamTopology::Binary(),
                        {.capacity = 1, .window = 3});
  // The R tuple (arrival 0) is in window at times 1..3 only.
  EXPECT_EQ(windowed.Run({&r, &s}, keep_first).total_results, 3);
}

}  // namespace
}  // namespace sjoin
