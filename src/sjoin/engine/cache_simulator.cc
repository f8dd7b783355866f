#include "sjoin/engine/cache_simulator.h"

#include "sjoin/common/check.h"
#include "sjoin/engine/reduction.h"
#include "sjoin/engine/sharded_stream_engine.h"

namespace sjoin {
namespace {

/// Shared tail of Run / RunJoinPolicy: drive the transformed streams
/// through the engine and translate result counts back into hit/miss
/// accounting (Theorem 1: one result tuple per hit, and only hits produce
/// results — supply tuples never join anything but their own next
/// reference).
CacheRunResult RunReduced(const CacheSimulator::Options& options,
                          const CachingReduction& reduction,
                          ReplacementPolicy& policy) {
  ShardedStreamEngine engine(StreamTopology::Binary(),
                             {.capacity = options.capacity,
                              .warmup = options.warmup,
                              .window = options.window,
                              .shards = options.shards});
  BinaryPolicyAdapter adapter(&policy);
  PerfObserver perf;
  EngineRunResult run = engine.Run(
      {&reduction.r_stream(), &reduction.s_stream()}, adapter, {&perf});

  CacheRunResult result;
  result.hits = run.total_results;
  result.counted_hits = run.counted_results;
  const Time len = static_cast<Time>(reduction.references().size());
  const Time counted_steps =
      len > options.warmup ? len - options.warmup : 0;
  result.misses = len - result.hits;
  result.counted_misses = counted_steps - result.counted_hits;
  result.telemetry = perf.telemetry();
  return result;
}

}  // namespace

CacheSimulator::CacheSimulator(Options options) : options_(options) {
  SJOIN_CHECK_GE(options_.capacity, 1u);
  SJOIN_CHECK_GE(options_.warmup, 0);
  if (options_.window.has_value()) SJOIN_CHECK_GE(*options_.window, 0);
  SJOIN_CHECK_GE(options_.shards, 1);
}

CacheRunResult CacheSimulator::Run(const std::vector<Value>& references,
                                   CachingPolicy& policy) const {
  CachingReduction reduction(references);
  ReductionJoinPolicy join_policy(&reduction, &policy);
  return RunReduced(options_, reduction, join_policy);
}

CacheRunResult CacheSimulator::RunJoinPolicy(
    const std::vector<Value>& references, ReplacementPolicy& policy) const {
  CachingReduction reduction(references);
  return RunReduced(options_, reduction, policy);
}

}  // namespace sjoin
