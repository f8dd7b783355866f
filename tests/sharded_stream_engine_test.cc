// ShardedStreamEngine: value-domain sharding must be invisible in the
// output — bit-identical per-step traces, totals and telemetry for any
// shard count — for scored (shard-scorable) policies, including skewed
// inputs, NaN scores and degenerate inputs (capacity 1, windows 0 and 1,
// streams of length 0 and 1); capacity 0 is rejected; policies without
// shard scoring fall back to the serial engine through the same API; the
// façades plumb Options::shards.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/rank_order.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/engine/sharded_stream_engine.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/life_policy.h"
#include "sjoin/policies/lru_policy.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/stochastic/discrete_distribution.h"
#include "sjoin/stochastic/stationary_process.h"

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

/// Records retained ids and cache contents per step for exact comparison.
class TraceObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    retained_.push_back(*step.retained);
    std::vector<std::int64_t> snapshot;
    snapshot.reserve(step.cache->size());
    for (const StreamTuple& tuple : *step.cache) snapshot.push_back(tuple.id);
    cache_ids_.push_back(std::move(snapshot));
    produced_.push_back(step.produced);
  }

  const std::vector<std::vector<TupleId>>& retained() const {
    return retained_;
  }
  const std::vector<std::vector<std::int64_t>>& cache_ids() const {
    return cache_ids_;
  }
  const std::vector<std::int64_t>& produced() const { return produced_; }

 private:
  std::vector<std::vector<TupleId>> retained_;
  std::vector<std::vector<std::int64_t>> cache_ids_;
  std::vector<std::int64_t> produced_;
};

void ExpectShardedMatchesSerial(const StreamEngine::Options& options,
                                const std::vector<Value>& r,
                                const std::vector<Value>& s,
                                ReplacementPolicy& policy) {
  BinaryPolicyAdapter adapter(&policy);

  StreamEngine serial(StreamTopology::Binary(), options);
  TraceObserver serial_trace;
  PerfObserver serial_perf;
  EngineRunResult serial_run =
      serial.Run({&r, &s}, adapter, {&serial_perf, &serial_trace});

  for (int shards : {1, 2, 4, 8}) {
    ShardedStreamEngine engine(StreamTopology::Binary(),
                               {.capacity = options.capacity,
                                .warmup = options.warmup,
                                .window = options.window,
                                .shards = shards});
    TraceObserver trace;
    PerfObserver perf;
    EngineRunResult run = engine.Run({&r, &s}, adapter, {&perf, &trace});

    EXPECT_EQ(serial_run.total_results, run.total_results) << shards;
    EXPECT_EQ(serial_run.counted_results, run.counted_results) << shards;
    EXPECT_EQ(serial_perf.telemetry().peak_candidates,
              perf.telemetry().peak_candidates)
        << shards;
    EXPECT_EQ(serial_perf.telemetry().steps, perf.telemetry().steps)
        << shards;
    EXPECT_EQ(serial_trace.retained(), trace.retained()) << shards;
    EXPECT_EQ(serial_trace.cache_ids(), trace.cache_ids()) << shards;
    EXPECT_EQ(serial_trace.produced(), trace.produced()) << shards;
  }
}

TEST(ShardedStreamEngineTest, ScoredPoliciesMatchSerialBitForBit) {
  Rng rng(17);
  // Capacity 40 engages the per-shard value->count indexes (unwindowed at
  // capacity >= kValueIndexMinCapacity); capacity 3 covers linear scans.
  for (std::size_t capacity : {std::size_t{3}, std::size_t{40}}) {
    for (int windowed = 0; windowed < 2; ++windowed) {
      std::vector<Value> r = SampleValues(300, 12, rng);
      std::vector<Value> s = SampleValues(300, 12, rng);
      StreamEngine::Options options{.capacity = capacity, .warmup = 20};
      if (windowed != 0) options.window = 9;

      ProbPolicy prob;
      ExpectShardedMatchesSerial(options, r, s, prob);
      LifePolicy life(7);
      ExpectShardedMatchesSerial(options, r, s, life);
    }
  }
}

TEST(ShardedStreamEngineTest, NonScorablePolicyFallsBackToSerial) {
  Rng rng(23);
  std::vector<Value> r = SampleValues(200, 8, rng);
  std::vector<Value> s = SampleValues(200, 8, rng);
  // RandomPolicy has no shard scoring: shards = 4 must silently run the
  // serial engine, reproducing the serial run exactly (Reset() restores
  // the policy's internal rng).
  RandomPolicy random(11, std::nullopt);
  ExpectShardedMatchesSerial({.capacity = 5, .warmup = 10}, r, s, random);
}

TEST(ShardedStreamEngineTest, FacadeShardsOptionIsBitIdentical) {
  Rng rng(31);
  std::vector<Value> r = SampleValues(250, 10, rng);
  std::vector<Value> s = SampleValues(250, 10, rng);

  ProbPolicy prob;
  JoinSimulator::Options serial_options{.capacity = 6, .warmup = 12};
  JoinRunResult serial = JoinSimulator(serial_options).Run(r, s, prob);
  JoinSimulator::Options sharded_options = serial_options;
  sharded_options.shards = 4;
  JoinRunResult sharded = JoinSimulator(sharded_options).Run(r, s, prob);
  EXPECT_EQ(serial.total_results, sharded.total_results);
  EXPECT_EQ(serial.counted_results, sharded.counted_results);
  EXPECT_EQ(serial.telemetry.peak_candidates,
            sharded.telemetry.peak_candidates);

  // The caching reduction (with its decided-step hit fast path) through
  // CacheSimulator::Options::shards.
  std::vector<Value> references = SampleValues(300, 20, rng);
  LruCachingPolicy lru;
  CacheRunResult cache_serial =
      CacheSimulator({.capacity = 8, .warmup = 10}).Run(references, lru);
  CacheRunResult cache_sharded =
      CacheSimulator({.capacity = 8, .warmup = 10, .shards = 4})
          .Run(references, lru);
  EXPECT_EQ(cache_serial.hits, cache_sharded.hits);
  EXPECT_EQ(cache_serial.misses, cache_sharded.misses);
  EXPECT_EQ(cache_serial.counted_hits, cache_sharded.counted_hits);
  EXPECT_EQ(cache_serial.counted_misses, cache_sharded.counted_misses);
}

TEST(ShardedStreamEngineTest, FacadeIsReusableAcrossRuns) {
  Rng rng(43);
  std::vector<Value> r = SampleValues(200, 9, rng);
  std::vector<Value> s = SampleValues(200, 9, rng);
  ProbPolicy prob;

  JoinRunResult serial = JoinSimulator({.capacity = 6}).Run(r, s, prob);
  JoinSimulator sim({.capacity = 6, .shards = 4});
  for (int run = 0; run < 3; ++run) {
    JoinRunResult sharded = sim.Run(r, s, prob);
    EXPECT_EQ(serial.total_results, sharded.total_results) << run;
    EXPECT_EQ(serial.counted_results, sharded.counted_results) << run;
  }
}

TEST(ShardedStreamEngineTest, EngineIsReusableAcrossRuns) {
  Rng rng(47);
  std::vector<Value> r = SampleValues(150, 8, rng);
  std::vector<Value> s = SampleValues(150, 8, rng);
  ProbPolicy prob;
  BinaryPolicyAdapter adapter(&prob);
  ShardedStreamEngine engine(StreamTopology::Binary(),
                             {.capacity = 6, .warmup = 8, .shards = 3});
  EngineRunResult first = engine.Run({&r, &s}, adapter);
  EngineRunResult second = engine.Run({&r, &s}, adapter);
  EXPECT_EQ(first.total_results, second.total_results);
  EXPECT_EQ(first.counted_results, second.counted_results);
}

/// A Zipf-skewed value stream: value v with mass ~ (v+1)^-s over
/// [0, domain). The hot head loads one shard far above the others.
std::vector<Value> SampleZipfValues(Time len, Value domain, double s,
                                    Rng& rng) {
  std::vector<double> cdf(static_cast<std::size_t>(domain));
  double total = 0.0;
  for (Value v = 0; v < domain; ++v) {
    total += std::pow(static_cast<double>(v + 1), -s);
    cdf[static_cast<std::size_t>(v)] = total;
  }
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(len));
  for (Time t = 0; t < len; ++t) {
    double u = rng.UniformReal() * total;
    Value v = 0;
    while (cdf[static_cast<std::size_t>(v)] < u && v + 1 < domain) ++v;
    out.push_back(v);
  }
  return out;
}

TEST(ShardedStreamEngineTest, SkewedInputsMatchSerialBitForBit) {
  Rng rng(67);
  for (std::size_t capacity : {std::size_t{4}, std::size_t{40}}) {
    std::vector<Value> r = SampleZipfValues(400, 24, 1.2, rng);
    std::vector<Value> s = SampleZipfValues(400, 24, 1.2, rng);
    ProbPolicy prob;
    ExpectShardedMatchesSerial({.capacity = capacity, .warmup = 20}, r, s,
                               prob);
  }
}

TEST(ShardedStreamEngineTest, RankOrderPutsNanBelowEveryNumber) {
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  // NaN loses to every number, -inf included, from either side.
  EXPECT_TRUE(RankOrderBetter(-inf, 0, 0, nan, 9, 9));
  EXPECT_FALSE(RankOrderBetter(nan, 9, 9, -inf, 0, 0));
  EXPECT_TRUE(RankOrderBetter(0.0, 0, 0, nan, 9, 9));
  // Two NaNs fall through to the (major, minor) tie-break.
  EXPECT_TRUE(RankOrderBetter(nan, 2, 0, nan, 1, 5));
  EXPECT_FALSE(RankOrderBetter(nan, 1, 5, nan, 2, 0));
  EXPECT_TRUE(RankOrderBetter(nan, 1, 6, nan, 1, 5));
  EXPECT_FALSE(RankOrderBetter(nan, 1, 5, nan, 1, 5));
  // Numbers keep the plain descending order.
  EXPECT_TRUE(RankOrderBetter(2.0, 0, 0, 1.0, 9, 9));
  EXPECT_TRUE(RankOrderBetter(1.0, 3, 0, 1.0, 2, 9));
}

/// Shard-scorable policy that scores every value divisible by 3 as NaN
/// and the rest by value, so NaN scores meet numbers, each other, and
/// equal numbers in every sort and merge the engines run.
class NanScoringPolicy final : public ScoredPolicy {
 public:
  const char* name() const override { return "nan-scoring"; }

 protected:
  bool ShardScorable() const override { return true; }
  double Score(const Tuple& tuple, const PolicyContext& ctx) override {
    (void)ctx;
    if (tuple.value % 3 == 0) return std::nan("");
    return static_cast<double>(tuple.value % 7);
  }
};

TEST(ShardedStreamEngineTest, NanScoresGiveTheSameResultsAtEveryShardCount) {
  Rng rng(83);
  std::vector<Value> r = SampleValues(4000, 41, rng);
  std::vector<Value> s = SampleValues(4000, 41, rng);
  NanScoringPolicy policy;
  BinaryPolicyAdapter adapter(&policy);

  StreamEngine serial(StreamTopology::Binary(), {.capacity = 20});
  TraceObserver serial_trace;
  EngineRunResult serial_run = serial.Run({&r, &s}, adapter, {&serial_trace});
  EXPECT_GT(serial_run.counted_results, 0);

  for (int shards : {1, 2, 4, 8}) {
    ShardedStreamEngine engine(StreamTopology::Binary(),
                               {.capacity = 20, .shards = shards});
    TraceObserver trace;
    EngineRunResult run = engine.Run({&r, &s}, adapter, {&trace});
    EXPECT_EQ(serial_run.counted_results, run.counted_results) << shards;
    EXPECT_EQ(serial_trace.retained(), trace.retained()) << shards;
  }
}

TEST(ShardedStreamEngineTest, DegenerateInputsMatchSerialBitForBit) {
  // Capacity 1, windows 0 and 1, and streams of length 0 and 1: each
  // must give the serial engine's result at every shard count, for PROB,
  // LIFE and HEEB-time-incr (on a stationary model of the sampled values).
  const StationaryProcess model(DiscreteDistribution::BoundedUniform(0, 11));
  struct DegenerateCase {
    const char* name;
    StreamEngine::Options options;
    Time length;
  };
  const DegenerateCase kCases[] = {
      {"capacity 1", {.capacity = 1, .warmup = 5}, 200},
      {"window 0", {.capacity = 6, .warmup = 5, .window = 0}, 200},
      {"window 1", {.capacity = 6, .warmup = 5, .window = 1}, 200},
      {"length 0", {.capacity = 6}, 0},
      {"length 1", {.capacity = 6}, 1},
  };
  Rng rng(89);
  for (const DegenerateCase& c : kCases) {
    SCOPED_TRACE(c.name);
    std::vector<Value> r = SampleValues(c.length, 12, rng);
    std::vector<Value> s = SampleValues(c.length, 12, rng);
    ProbPolicy prob;
    ExpectShardedMatchesSerial(c.options, r, s, prob);
    LifePolicy life(7);
    ExpectShardedMatchesSerial(c.options, r, s, life);
    HeebJoinPolicy heeb(
        &model, &model,
        {.mode = HeebJoinPolicy::Mode::kTimeIncremental, .horizon = 40});
    ExpectShardedMatchesSerial(c.options, r, s, heeb);
  }
}

TEST(ShardedStreamEngineDeathTest, CapacityZeroIsRejected) {
  EXPECT_DEATH(StreamEngine(StreamTopology::Binary(), {.capacity = 0}),
               "capacity");
  EXPECT_DEATH(ShardedStreamEngine(StreamTopology::Binary(),
                                   {.capacity = 0, .shards = 4}),
               "capacity");
}

}  // namespace
}  // namespace sjoin
