// Failure-injection and fuzz tests: the simulators must reject malformed
// policy outputs loudly, and hold their invariants under adversarial but
// legal policies. The malformed outputs are injected on both commit paths
// (tiny caches and value-indexed caches of capacity >= 32), on the sharded
// engine's decided step and through the Theorem 1 reduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sjoin/common/rng.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/sharded_stream_engine.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/opt_offline_policy.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/policies/random_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stationary_process.h"
#include "sjoin/stochastic/stream_sampler.h"
#include "sjoin/testing/naive_simulator.h"

namespace sjoin {
namespace {

class MalformedPolicy final : public ReplacementPolicy {
 public:
  enum class Kind { kUnknownId, kDuplicateId, kOversized };
  explicit MalformedPolicy(Kind kind) : kind_(kind) {}
  const char* name() const override { return "MALFORMED"; }

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    switch (kind_) {
      case Kind::kUnknownId:
        return {999999};
      case Kind::kDuplicateId: {
        TupleId id = (*ctx.arrivals)[0].id;
        return {id, id};
      }
      case Kind::kOversized: {
        std::vector<TupleId> all;
        for (const Tuple& t : *ctx.cached) all.push_back(t.id);
        for (const Tuple& t : *ctx.arrivals) all.push_back(t.id);
        return all;  // > capacity once the cache is full.
      }
    }
    return {};
  }

 private:
  Kind kind_;
};

using RobustnessDeathTest = ::testing::Test;

TEST(RobustnessDeathTest, UnknownRetainedIdAborts) {
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  MalformedPolicy policy(MalformedPolicy::Kind::kUnknownId);
  std::vector<Value> r = {1, 2};
  std::vector<Value> s = {3, 4};
  EXPECT_DEATH(sim.Run(r, s, policy), "not a candidate");
}

TEST(RobustnessDeathTest, DuplicateRetainedIdAborts) {
  JoinSimulator sim({.capacity = 2, .warmup = 0});
  MalformedPolicy policy(MalformedPolicy::Kind::kDuplicateId);
  std::vector<Value> r = {1, 2};
  std::vector<Value> s = {3, 4};
  EXPECT_DEATH(sim.Run(r, s, policy), "twice");
}

TEST(RobustnessDeathTest, OversizedRetainedSetAborts) {
  JoinSimulator sim({.capacity = 1, .warmup = 0});
  MalformedPolicy policy(MalformedPolicy::Kind::kOversized);
  std::vector<Value> r = {1, 2};
  std::vector<Value> s = {3, 4};
  EXPECT_DEATH(sim.Run(r, s, policy), "retained");
}

class MalformedCachingPolicy final : public CachingPolicy {
 public:
  const char* name() const override { return "MALFORMED"; }
  std::vector<Value> SelectRetained(const CachingContext& ctx) override {
    (void)ctx;
    return {424242};  // Never a candidate.
  }
};

TEST(RobustnessDeathTest, CachingUnknownValueAborts) {
  CacheSimulator sim({.capacity = 2, .warmup = 0});
  MalformedCachingPolicy policy;
  std::vector<Value> refs = {1, 2};
  EXPECT_DEATH(sim.Run(refs, policy), "not a candidate");
}

// Keeps the newest candidates until the cache is full, then answers with a
// malformed list built from the full cache: the commit then runs on the
// value-index path with a full candidate table.
class MalformOnceFullPolicy final : public ReplacementPolicy {
 public:
  enum class Kind { kUnknownId, kDuplicateCachedId };
  explicit MalformOnceFullPolicy(Kind kind) : kind_(kind) {}
  const char* name() const override { return "MALFORM-ONCE-FULL"; }

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> ids;
    for (const Tuple& t : *ctx.cached) ids.push_back(t.id);
    if (ids.size() == ctx.capacity) {
      if (kind_ == Kind::kUnknownId) {
        ids[ids.size() / 2] = 999999;
      } else {
        ids[ids.size() / 2] = ids.front();
      }
      return ids;
    }
    for (const Tuple& t : *ctx.arrivals) {
      if (ids.size() < ctx.capacity) ids.push_back(t.id);
    }
    return ids;
  }

 private:
  Kind kind_;
};

std::vector<Value> Iota(Time len, Value start) {
  std::vector<Value> out;
  for (Time t = 0; t < len; ++t) out.push_back(start + t % 7);
  return out;
}

TEST(RobustnessDeathTest, UnknownIdOnceTheIndexedCacheIsFullAborts) {
  JoinSimulator sim({.capacity = 32, .warmup = 0});
  MalformOnceFullPolicy policy(MalformOnceFullPolicy::Kind::kUnknownId);
  const std::vector<Value> r = Iota(40, 0);
  const std::vector<Value> s = Iota(40, 3);
  EXPECT_DEATH(sim.Run(r, s, policy),
               "policy retained a tuple that is not a candidate");
}

TEST(RobustnessDeathTest, DuplicateCachedIdInTheIndexedCacheAborts) {
  JoinSimulator sim({.capacity = 32, .warmup = 0});
  MalformOnceFullPolicy policy(
      MalformOnceFullPolicy::Kind::kDuplicateCachedId);
  const std::vector<Value> r = Iota(40, 0);
  const std::vector<Value> s = Iota(40, 3);
  EXPECT_DEATH(sim.Run(r, s, policy), "policy retained the same tuple twice");
}

// A sharded engine policy that decides every step in ShardBeginStep (the
// path the reduction's cache hits take). It keeps the newest candidates
// until the cache is full, then decides a malformed list.
class MalformedDecidingPolicy final : public EnginePolicy,
                                      public EngineShardScoring {
 public:
  enum class Kind { kUnknownId, kDuplicateCachedId };
  explicit MalformedDecidingPolicy(Kind kind) : kind_(kind) {}
  const char* name() const override { return "MALFORMED-DECIDING"; }

  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    std::vector<TupleId> ids;
    ShardBeginStep(ctx, &ids);
    return ids;
  }
  EngineShardScoring* shard_scoring() override { return this; }

  bool ShardBeginStep(const EngineContext& ctx,
                      std::vector<TupleId>* decided) override {
    decided->clear();
    for (const StreamTuple& t : *ctx.cached) decided->push_back(t.id);
    if (decided->size() == ctx.capacity) {
      (*decided)[decided->size() / 2] =
          kind_ == Kind::kUnknownId ? 999999 : decided->front();
      return false;
    }
    for (const StreamTuple& t : *ctx.arrivals) {
      if (decided->size() < ctx.capacity) decided->push_back(t.id);
    }
    return false;
  }
  std::optional<ShardKey> ShardScoreCached(const StreamTuple& tuple,
                                           const EngineContext& ctx,
                                           ShardScratch* scratch) override {
    (void)tuple;
    (void)ctx;
    (void)scratch;
    return std::nullopt;  // Never called: every step is decided.
  }
  std::optional<ShardKey> ShardScoreArrival(
      const StreamTuple& tuple, const EngineContext& ctx) override {
    (void)tuple;
    (void)ctx;
    return std::nullopt;
  }
  void ShardEndStep(const EngineContext& ctx,
                    const std::vector<TupleId>& retained,
                    const std::vector<TupleId>& evicted) override {
    (void)ctx;
    (void)retained;
    (void)evicted;
  }

 private:
  Kind kind_;
};

TEST(RobustnessDeathTest, ShardedDecidedStepRejectsUnknownId) {
  ShardedStreamEngine engine(StreamTopology::Binary(),
                             {.capacity = 32, .warmup = 0, .shards = 4});
  MalformedDecidingPolicy policy(MalformedDecidingPolicy::Kind::kUnknownId);
  const std::vector<Value> r = Iota(40, 0);
  const std::vector<Value> s = Iota(40, 3);
  EXPECT_DEATH(engine.Run({&r, &s}, policy),
               "policy decided a tuple that is not a candidate");
}

TEST(RobustnessDeathTest, ShardedDecidedStepRejectsDuplicateId) {
  ShardedStreamEngine engine(StreamTopology::Binary(),
                             {.capacity = 32, .warmup = 0, .shards = 4});
  MalformedDecidingPolicy policy(
      MalformedDecidingPolicy::Kind::kDuplicateCachedId);
  const std::vector<Value> r = Iota(40, 0);
  const std::vector<Value> s = Iota(40, 3);
  EXPECT_DEATH(engine.Run({&r, &s}, policy),
               "policy decided the same tuple twice");
}

// Retains the first cached value twice on every miss with a non-empty
// cache; the reduction maps both copies to one supply tuple.
class DoubleRetainingCachingPolicy final : public CachingPolicy {
 public:
  const char* name() const override { return "DOUBLE-RETAIN"; }
  std::vector<Value> SelectRetained(const CachingContext& ctx) override {
    if (ctx.cached->empty()) return {ctx.referenced};
    return {ctx.cached->front(), ctx.cached->front()};
  }
};

TEST(RobustnessDeathTest, CachingValueRetainedTwiceAborts) {
  for (std::size_t capacity : {2u, 40u}) {
    CacheSimulator sim({.capacity = capacity, .warmup = 0});
    DoubleRetainingCachingPolicy policy;
    std::vector<Value> refs = {1, 2, 3, 4};
    EXPECT_DEATH(sim.Run(refs, policy), "twice") << capacity;
  }
}

TEST(RobustnessDeathTest, TwoSupplyTuplesForOneValueAbort) {
  // Each occurrence of 5 gets its own supply tuple; a cache holding two of
  // them breaks the reasonable-policy discipline of Theorem 1.
  const CachingReduction reduction({5, 5, 5});
  MalformedCachingPolicy caching;
  ReductionJoinPolicy policy(&reduction, &caching);
  policy.Reset();
  const std::vector<Tuple> cached = {
      {TupleIdAt(StreamSide::kS, 0), StreamSide::kS,
       reduction.s_stream()[0], 0},
      {TupleIdAt(StreamSide::kS, 1), StreamSide::kS,
       reduction.s_stream()[1], 1}};
  const std::vector<Tuple> arrivals = {
      {TupleIdAt(StreamSide::kR, 2), StreamSide::kR,
       reduction.r_stream()[2], 2},
      {TupleIdAt(StreamSide::kS, 2), StreamSide::kS,
       reduction.s_stream()[2], 2}};
  const StreamHistory history_r;
  const StreamHistory history_s;
  PolicyContext ctx;
  ctx.now = 2;
  ctx.capacity = 2;
  ctx.cached = &cached;
  ctx.arrivals = &arrivals;
  ctx.history_r = &history_r;
  ctx.history_s = &history_s;
  EXPECT_DEATH(policy.SelectRetained(ctx),
               "multiple supply tuples cached for one value");
}

// A legal but adversarial policy: retains a uniformly random valid subset
// of random size each step.
class FuzzPolicy final : public ReplacementPolicy {
 public:
  explicit FuzzPolicy(std::uint64_t seed) : rng_(seed) {}
  const char* name() const override { return "FUZZ"; }
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> pool;
    for (const Tuple& t : *ctx.cached) pool.push_back(t.id);
    for (const Tuple& t : *ctx.arrivals) pool.push_back(t.id);
    std::shuffle(pool.begin(), pool.end(), rng_.engine());
    std::size_t keep = std::min<std::size_t>(
        ctx.capacity, rng_.UniformIndex(pool.size() + 1));
    pool.resize(keep);
    return pool;
  }

 private:
  Rng rng_;
};

TEST(FuzzTest, SimulatorInvariantsHoldUnderRandomLegalPolicies) {
  Rng rng(2026);
  for (int trial = 0; trial < 15; ++trial) {
    Time len = rng.UniformInt(10, 120);
    std::vector<Value> r, s;
    for (Time t = 0; t < len; ++t) {
      r.push_back(rng.UniformInt(0, 5));
      s.push_back(rng.UniformInt(0, 5));
    }
    std::size_t capacity = static_cast<std::size_t>(rng.UniformInt(1, 6));
    JoinSimulator sim({.capacity = capacity,
                       .warmup = rng.UniformInt(0, len / 2),
                       .window = std::nullopt,
                       .track_cache_composition = true});
    FuzzPolicy fuzz(static_cast<std::uint64_t>(trial));
    auto result = sim.Run(r, s, fuzz);
    EXPECT_GE(result.total_results, 0);
    EXPECT_GE(result.total_results, result.counted_results);
    for (double fraction : result.r_fraction_by_time) {
      EXPECT_GE(fraction, 0.0);
      EXPECT_LE(fraction, 1.0);
    }
    // And no legal policy may beat the offline optimum.
    OptOfflinePolicy opt(r, s, capacity);
    auto opt_result = sim.Run(r, s, opt);
    EXPECT_GE(opt_result.total_results, result.total_results);
  }
}

// A legal policy that keeps the cache full, in a fresh random order each
// step, and now and then leaves it a few tuples short: every commit
// permutes the cached positions, and the value index sees evictions and
// re-admissions.
class FullCacheFuzzPolicy final : public ReplacementPolicy {
 public:
  explicit FullCacheFuzzPolicy(std::uint64_t seed) : rng_(seed) {}
  const char* name() const override { return "FUZZ-FULL"; }
  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override {
    std::vector<TupleId> pool;
    for (const Tuple& t : *ctx.cached) pool.push_back(t.id);
    for (const Tuple& t : *ctx.arrivals) pool.push_back(t.id);
    std::shuffle(pool.begin(), pool.end(), rng_.engine());
    // Usually keep as many as fit; now and then up to 3 fewer.
    const std::size_t drop =
        rng_.UniformIndex(8) == 0 ? rng_.UniformIndex(4) : 0;
    const std::size_t keep = pool.size() > drop ? pool.size() - drop : 0;
    pool.resize(std::min(keep, ctx.capacity));
    return pool;
  }

 private:
  Rng rng_;
};

TEST(FuzzTest, IndexedCommitsMatchTheNaiveSimulator) {
  Rng rng(14);
  for (std::size_t capacity : {32u, 300u}) {
    for (int trial = 0; trial < 3; ++trial) {
      // At least 4k steps, so every cached position is rewritten many
      // times and the candidate table is reused across generations.
      const Time len = static_cast<Time>(4 * capacity) + 50;
      std::vector<Value> r, s;
      for (Time t = 0; t < len; ++t) {
        r.push_back(rng.UniformInt(0, 40));
        s.push_back(rng.UniformInt(0, 40));
      }
      const JoinSimulator::Options options{.capacity = capacity,
                                           .warmup = len / 4,
                                           .window = std::nullopt,
                                           .track_cache_composition = true};
      const auto seed = static_cast<std::uint64_t>(100 * capacity + trial);
      FullCacheFuzzPolicy engine_policy(seed);
      FullCacheFuzzPolicy naive_policy(seed);
      const JoinRunResult got =
          JoinSimulator(options).Run(r, s, engine_policy);
      const JoinRunResult want =
          testing::NaiveJoinSimulator(options).Run(r, s, naive_policy);
      EXPECT_EQ(got.total_results, want.total_results) << capacity;
      EXPECT_EQ(got.counted_results, want.counted_results) << capacity;
      EXPECT_EQ(got.r_fraction_by_time, want.r_fraction_by_time)
          << capacity;
    }
  }
}

// Decides every step in ShardBeginStep with a random legal retained list
// (and answers SelectRetained identically), so the sharded engine's
// decided-step commit can be compared with the serial commit.
class RandomDecidingPolicy final : public EnginePolicy,
                                   public EngineShardScoring {
 public:
  explicit RandomDecidingPolicy(std::uint64_t seed) : rng_(seed) {}
  const char* name() const override { return "RANDOM-DECIDING"; }

  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override {
    std::vector<TupleId> ids;
    ShardBeginStep(ctx, &ids);
    return ids;
  }
  EngineShardScoring* shard_scoring() override { return this; }

  bool ShardBeginStep(const EngineContext& ctx,
                      std::vector<TupleId>* decided) override {
    decided->clear();
    for (const StreamTuple& t : *ctx.cached) decided->push_back(t.id);
    for (const StreamTuple& t : *ctx.arrivals) decided->push_back(t.id);
    std::shuffle(decided->begin(), decided->end(), rng_.engine());
    const std::size_t drop =
        rng_.UniformIndex(8) == 0 ? rng_.UniformIndex(4) : 0;
    const std::size_t keep =
        decided->size() > drop ? decided->size() - drop : 0;
    decided->resize(std::min(keep, ctx.capacity));
    return false;
  }
  std::optional<ShardKey> ShardScoreCached(const StreamTuple& tuple,
                                           const EngineContext& ctx,
                                           ShardScratch* scratch) override {
    (void)tuple;
    (void)ctx;
    (void)scratch;
    return std::nullopt;  // Never called: every step is decided.
  }
  std::optional<ShardKey> ShardScoreArrival(
      const StreamTuple& tuple, const EngineContext& ctx) override {
    (void)tuple;
    (void)ctx;
    return std::nullopt;
  }
  void ShardEndStep(const EngineContext& ctx,
                    const std::vector<TupleId>& retained,
                    const std::vector<TupleId>& evicted) override {
    (void)ctx;
    (void)retained;
    (void)evicted;
  }

 private:
  Rng rng_;
};

/// Records the cache ids and Phase-1 results of every step.
class CacheTraceObserver final : public StepObserver {
 public:
  void OnStep(const EngineStepView& step) override {
    std::vector<TupleId> ids;
    for (const StreamTuple& tuple : *step.cache) ids.push_back(tuple.id);
    cache_ids.push_back(std::move(ids));
    produced.push_back(step.produced);
  }
  std::vector<std::vector<TupleId>> cache_ids;
  std::vector<std::int64_t> produced;
};

TEST(FuzzTest, ShardedDecidedCommitsMatchTheSerialEngine) {
  Rng rng(41);
  for (std::size_t capacity : {5u, 32u, 300u}) {
    const Time len = static_cast<Time>(4 * capacity) + 50;
    std::vector<Value> r, s;
    for (Time t = 0; t < len; ++t) {
      r.push_back(rng.UniformInt(0, 40));
      s.push_back(rng.UniformInt(0, 40));
    }
    RandomDecidingPolicy serial_policy(capacity);
    CacheTraceObserver serial_trace;
    StreamEngine serial(StreamTopology::Binary(),
                        {.capacity = capacity, .warmup = len / 4});
    const EngineRunResult want =
        serial.Run({&r, &s}, serial_policy, {&serial_trace});

    RandomDecidingPolicy sharded_policy(capacity);
    CacheTraceObserver sharded_trace;
    ShardedStreamEngine sharded(
        StreamTopology::Binary(),
        {.capacity = capacity, .warmup = len / 4, .shards = 4});
    const EngineRunResult got =
        sharded.Run({&r, &s}, sharded_policy, {&sharded_trace});
    ASSERT_EQ(sharded.fallback_reason(), nullptr);

    EXPECT_EQ(got.total_results, want.total_results) << capacity;
    EXPECT_EQ(got.counted_results, want.counted_results) << capacity;
    EXPECT_EQ(sharded_trace.cache_ids, serial_trace.cache_ids) << capacity;
    EXPECT_EQ(sharded_trace.produced, serial_trace.produced) << capacity;
  }
}

TEST(FuzzTest, WindowedOptUpperBoundsWindowedPolicies) {
  LinearTrendProcess r_process(1.0, -1.0,
                               DiscreteDistribution::BoundedUniform(-6, 6));
  LinearTrendProcess s_process(1.0, 0.0,
                               DiscreteDistribution::BoundedUniform(-8, 8));
  Rng rng(7);
  for (Time window : {3, 8, 20}) {
    auto pair = SampleStreamPair(r_process, s_process, 200, rng);
    JoinSimulator sim({.capacity = 4, .warmup = 0, .window = window});
    OptOfflinePolicy opt(pair.r, pair.s, 4, window);
    auto opt_result = sim.Run(pair.r, pair.s, opt);

    RandomPolicy rand(3);
    ProbPolicy prob;
    EXPECT_GE(opt_result.total_results,
              sim.Run(pair.r, pair.s, rand).total_results)
        << "window " << window;
    EXPECT_GE(opt_result.total_results,
              sim.Run(pair.r, pair.s, prob).total_results)
        << "window " << window;
  }
}

TEST(FuzzTest, ReductionHoldsForModelDrivenCachingPolicy) {
  // Theorem 1 with HEEB as the caching policy (stationary model).
  StationaryProcess reference(
      DiscreteDistribution::FromMasses(0, {0.4, 0.25, 0.2, 0.15}));
  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    auto refs = SampleRealization(reference, 150, rng);
    HeebCachingPolicy::Options options;
    options.alpha = 6.0;
    options.horizon = 80;
    HeebCachingPolicy heeb(&reference, options);

    CacheSimulator cache_sim({.capacity = 2, .warmup = 0});
    auto cache_result = cache_sim.Run(refs, heeb);

    CachingReduction reduction(refs);
    ReductionJoinPolicy join_policy(&reduction, &heeb);
    JoinSimulator join_sim({.capacity = 2, .warmup = 0});
    auto join_result =
        join_sim.Run(reduction.r_stream(), reduction.s_stream(),
                     join_policy);
    EXPECT_EQ(cache_result.hits, join_result.total_results) << trial;
  }
}

}  // namespace
}  // namespace sjoin
