#ifndef SJOIN_ENGINE_SHARDED_STREAM_ENGINE_H_
#define SJOIN_ENGINE_SHARDED_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sjoin/common/shard_arena.h"
#include "sjoin/common/types.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/retention.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/engine/stream_tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// Value-domain sharding of the StreamEngine step loop.
///
/// Equijoins only match equal values, so hashing the value domain onto N
/// shards splits both Phase 1 and the scoring half of Phase 2 into
/// independent per-shard work: an arrival probes exactly the shard its
/// value maps to, and a score-decomposable policy (EngineShardScoring)
/// ranks each shard's cached tuples locally. A deterministic merge of the
/// per-shard sorted runs plus the (serially scored) arrivals then selects
/// the global top-k. Because the merge comparator is the policy's own
/// strict total order, the merged prefix equals the serial engine's sorted
/// prefix — retained sets, result counts, telemetry and observer views are
/// bit-identical to StreamEngine for any shard count.
///
/// Execution model (see DESIGN.md §2d): every shard slice and every level
/// of the pairwise merge cascade runs inline on the calling thread.
/// Per-step scratch (scored runs, SoA lanes, merge outputs) comes from one
/// engine-owned monotonic arena, reset every scored step, so the
/// scored-step hot loop performs no heap allocation.
///
/// Policies that cannot decompose (shard_scoring() == nullptr) or runs
/// with shards <= 1 fall back to a plain StreamEngine behind the same API.

namespace sjoin {

/// StreamEngine with a sharded step loop. Same Run contract as
/// StreamEngine: cheap to Run repeatedly, not concurrently.
class ShardedStreamEngine {
 public:
  struct Options {
    /// Cache capacity k.
    std::size_t capacity = 10;
    /// Results produced before this time are not counted.
    Time warmup = 0;
    /// Sliding-window length (Section 7); nullopt = regular join.
    std::optional<Time> window;
    /// Value-domain shards. <= 1 runs the serial StreamEngine.
    int shards = 1;
  };

  ShardedStreamEngine(StreamTopology topology, Options options);

  /// Same contract and observer protocol as StreamEngine::Run. Whether the
  /// run executes sharded is decided here, once, from
  /// `policy.shard_scoring()`; a serial run delegates to an internal
  /// StreamEngine outright (identical results either way). Like the serial
  /// engine, implemented as Open + Advance + Close over a private session.
  EngineRunResult Run(const std::vector<const std::vector<Value>*>& streams,
                      EnginePolicy& policy,
                      const std::vector<StepObserver*>& observers = {});

  // --- Incremental session lifecycle --------------------------------
  //
  // Mirrors StreamEngine's. The serial/sharded decision is taken once,
  // at Open, exactly as in Run(). A serial fallback opens an
  // engine-portable session on the internal StreamEngine (the engine's
  // own capacity/warmup/window apply). A sharded session pins to this
  // engine — the slot and arena structures backing it are
  // engine-resident — and at most one sharded session may be open per
  // engine at a time. Either way, slicing a stream into any pattern of
  // Advance batches reproduces the batch Run bit for bit.

  void Open(SessionState& session, EnginePolicy& policy,
            std::vector<StepObserver*> observers = {});
  void Advance(SessionState& session,
               const std::vector<const std::vector<Value>*>& batch);
  const EngineRunResult& Drain(const SessionState& session) const;
  EngineRunResult Close(SessionState& session);

  /// Why the most recent Run/Open on this engine fell back to the serial
  /// executor; nullptr when it genuinely ran sharded. The fallback is
  /// silent by design (results are identical), so façades surface this
  /// through telemetry instead of letting a sharded benchmark quietly
  /// measure the serial path.
  const char* fallback_reason() const { return fallback_reason_; }

  const StreamTopology& topology() const { return serial_.topology(); }
  const Options& options() const { return options_; }

 private:
  /// A retention candidate paired with its policy merge key.
  struct ScoredEntry {
    ShardKey key;
    StreamTuple tuple;
  };

  /// A sorted run entering the merge cascade (arena- or vector-backed).
  struct MergeRun {
    const ScoredEntry* data = nullptr;
    std::size_t size = 0;
  };

  /// One value-domain shard: the slice of the cache whose values hash
  /// here, its Phase-1 index, and this step's scored run (arena spans).
  struct ShardSlot {
    std::vector<StreamTuple> cache;
    /// Value -> cached-tuple count, per stream; engaged under the same
    /// criteria as the serial engine's index.
    std::vector<std::unordered_map<Value, std::int64_t>> value_index;
    /// This step's (merge key, tuple) run, sorted best-first. Arena span,
    /// capacity cache.size().
    ScoredEntry* scored = nullptr;
    std::size_t scored_size = 0;
    /// Cached tuples the policy scored as nullopt this step (e.g. the
    /// reduction's dead copy): evicted unconditionally, tracked only for
    /// the index decrement. Arena span, capacity cache.size().
    StreamTuple* dropped = nullptr;
    std::size_t dropped_size = 0;
    std::unique_ptr<ShardScratch> scratch;
    /// Phase-1 results produced by this shard's probes this step.
    std::int64_t produced = 0;
    /// SoA lanes + kernel scratch for batch scoring of this shard's cached
    /// run; arena spans carved with scored/dropped (capacity cache.size())
    /// only when the run batch-scores.
    Value* batch_values = nullptr;
    Time* batch_arrivals = nullptr;
    std::uint8_t* batch_sides = nullptr;
    TupleId* batch_ids = nullptr;
    double* batch_scores = nullptr;
    ShardKey* batch_keys = nullptr;
  };

  /// The once-per-run (or once-per-Open) executor decision: non-null iff
  /// the policy decomposes and shards > 1. Records fallback_reason_.
  EngineShardScoring* DecideScoring(EnginePolicy& policy);

  /// Sharded-path lifecycle backing both Run and the public session API.
  void OpenSharded(SessionState& session, EnginePolicy& policy,
                   EngineShardScoring& scoring,
                   std::vector<StepObserver*> observers, Time known_length);
  void AdvanceSharded(SessionState& session,
                      const std::vector<const std::vector<Value>*>& batch);
  EngineRunResult CloseSharded(SessionState& session);

  /// One shard's scratch carving, probes, cached scoring and run sort.
  void ProcessShard(const EngineContext& ctx, EngineShardScoring& scoring,
                    std::size_t shard);

  /// Sorts a scored run best-first. Shard runs enter nearly sorted (the
  /// commit rebuilds shard caches in merged order, and score advancement
  /// rarely reorders neighbours), so small runs use insertion sort;
  /// larger runs take introsort. Any comparison sort yields the same
  /// unique order — the keys are a strict total order.
  static void SortRun(ScoredEntry* run, std::size_t size);

  /// Shard of `value`: a splitmix-style scramble so adjacent values
  /// spread across shards. Any pure function of the value would do — the
  /// merge order never depends on which shard a tuple lives in.
  std::size_t ShardOf(Value value) const {
    auto x = static_cast<std::uint64_t>(value) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x % num_shards_);
  }

  Options options_;
  /// Serial engine: fallback executor and the topology/option holder.
  StreamEngine serial_;
  /// max(shards, 1), the modulus of ShardOf.
  std::uint64_t num_shards_;
  /// Why the last Run/Open fell back to serial (static string), or null.
  const char* fallback_reason_ = nullptr;
  /// Guards the engine-resident sharded-run state below: only one sharded
  /// session (Run included) may be open at a time.
  bool sharded_session_open_ = false;
  /// Session backing the sharded path of Run(); reused across calls.
  std::unique_ptr<SessionState> run_session_;
  bool run_use_value_index_ = false;
  /// Whether the current/last sharded run scores cached runs through the
  /// policy's batch kernel; decided once at OpenSharded from the
  /// scoring's ShardBatchScorable().
  bool run_batch_scoring_ = false;
  /// Per-step scratch: reserved for the worst case at OpenSharded and
  /// reset at the start of every scored step.
  ShardArena arena_;

  // Sharded-run state, hoisted so the steady state allocates nothing.
  std::vector<ShardSlot> slots_;
  std::vector<StreamTuple> cache_;  // Global cache, merged (serial) order.
  std::vector<StreamTuple> new_cache_;
  std::vector<StreamTuple> arrivals_;
  std::vector<StreamHistory> histories_;
  std::vector<ScoredEntry> arrival_scored_;
  std::vector<TupleId> decided_;
  std::vector<TupleId> retained_;
  std::vector<TupleId> evicted_;  // candidates \ retained, per step.
  // Merge-cascade state: the current level's sorted runs and the next
  // level's (merge outputs are arena spans).
  std::vector<MergeRun> merge_runs_;
  std::vector<MergeRun> next_runs_;
  /// Decided-step commit: id -> candidate position table and kept flags,
  /// shared with the serial engine's commit.
  RetentionResolver retention_;
  std::int64_t arena_growth_baseline_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_SHARDED_STREAM_ENGINE_H_
