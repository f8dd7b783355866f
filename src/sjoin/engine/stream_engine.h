#ifndef SJOIN_ENGINE_STREAM_ENGINE_H_
#define SJOIN_ENGINE_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/engine/candidate_batch.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/retention.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/engine/stream_tuple.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The unified step-loop core behind every simulator in the repo.
///
/// One engine, parameterized by a StreamTopology, runs the two-stream
/// joining problem (Section 2), the N-way multi-join generalization
/// (Appendix C), and — through the Theorem 1 reduction — the caching
/// problem. Each step: (Phase 1) the arrivals join the cache selected at
/// the previous step, through a per-stream value index when it is engaged;
/// (Phase 2) the policy picks the new cache from cached ∪ arrivals.
/// Everything that merely watches a run (telemetry, composition tracking,
/// validation, score traces) attaches as a StepObserver chain.
///
/// `JoinSimulator`, `CacheSimulator` and `MultiJoinSimulator` are thin
/// façades over this class, kept for API stability; constructing the
/// engine directly is equally supported (the differential suites run both
/// ways in CI).

namespace sjoin {

class ProbePlanner;
class ShardedStreamEngine;
struct SessionState;

/// The join graph: N streams plus the unordered stream pairs that equijoin.
class StreamTopology {
 public:
  /// `join_edges` lists unordered stream pairs that equijoin. Each pair
  /// must name two distinct in-range streams, and no unordered pair may
  /// appear twice — a duplicate or mirrored edge ((a,b) next to (b,a))
  /// would silently double-count every match on that edge.
  StreamTopology(int num_streams,
                 std::vector<std::pair<int, int>> join_edges);

  /// The classic two-stream topology: R (stream 0) joins S (stream 1).
  static StreamTopology Binary();

  int num_streams() const { return num_streams_; }
  const std::vector<std::pair<int, int>>& join_edges() const {
    return join_edges_;
  }

  /// Streams that join with `stream` under the join graph.
  const std::vector<int>& PartnersOf(int stream) const;

  /// True when streams `a` and `b` equijoin.
  bool Joins(int a, int b) const {
    return joins_[static_cast<std::size_t>(a)]
                 [static_cast<std::size_t>(b)] != 0;
  }

 private:
  int num_streams_;
  std::vector<std::pair<int, int>> join_edges_;
  std::vector<std::vector<int>> partners_;
  /// Adjacency as a membership matrix for the Phase-1 join test.
  std::vector<std::vector<char>> joins_;
};

/// Step context for an engine replacement decision. For N = 2 this is
/// field-for-field the information of the binary PolicyContext
/// (histories[0] = R, histories[1] = S).
struct EngineContext {
  Time now = 0;
  std::size_t capacity = 0;
  const std::vector<StreamTuple>* cached = nullptr;
  const std::vector<StreamTuple>* arrivals = nullptr;  // One per stream.
  const std::vector<StreamHistory>* histories = nullptr;
  std::optional<Time> window;
  /// SoA view of this step's candidates in scalar scoring order (cached
  /// then arrivals), or null when the engine did not build one. Borrowed;
  /// valid only for the duration of the SelectRetained call.
  const CandidateBatch* batch = nullptr;
};

/// Engine-level mirror of PolicyShardScoring (replacement_policy.h): the
/// per-step protocol ShardedStreamEngine drives instead of SelectRetained.
/// Same four phases, same ShardKey merge-order contract — see the binary
/// interface for the full documentation; only the tuple type differs.
class EngineShardScoring {
 public:
  virtual ~EngineShardScoring() = default;

  /// Serial step prologue. Returns false when the step is fully decided
  /// (`*decided` then holds the retained ids and no scoring happens).
  virtual bool ShardBeginStep(const EngineContext& ctx,
                              std::vector<TupleId>* decided) = 0;

  /// Per-shard scratch factory; nullptr when no scratch is needed.
  virtual std::unique_ptr<ShardScratch> MakeShardScratch() {
    return nullptr;
  }

  /// Thread-safe merge key for a cached tuple; nullopt excludes it.
  virtual std::optional<ShardKey> ShardScoreCached(
      const StreamTuple& tuple, const EngineContext& ctx,
      ShardScratch* scratch) = 0;

  /// True when ShardScoreCachedBatch may replace the per-tuple loop for
  /// whole shard runs (requires: no tuple is ever excluded via nullopt).
  /// Queried once per Run, at entry.
  virtual bool ShardBatchScorable() const { return false; }

  /// Batched counterpart of ShardScoreCached over one shard's cached run;
  /// bit-identical to the per-tuple calls. `score_scratch` is a
  /// caller-provided buffer of batch.size doubles (arena-carved per
  /// shard). The default loops ShardScoreCached.
  virtual void ShardScoreCachedBatch(const CandidateBatch& batch,
                                     const EngineContext& ctx,
                                     ShardScratch* scratch,
                                     double* score_scratch, ShardKey* out);

  /// Serial (post-barrier, arrival-order) key for an arrival.
  virtual std::optional<ShardKey> ShardScoreArrival(
      const StreamTuple& tuple, const EngineContext& ctx) = 0;

  /// Serial step epilogue with the merged retained set and its complement:
  /// `evicted` holds every candidate id (cached or arrival) that was NOT
  /// retained. The sharded engine gets this list for free from the merge
  /// leftovers, so policies can drop per-tuple state in O(evicted) instead
  /// of re-deriving the complement with an O(cache) retained-set walk.
  virtual void ShardEndStep(const EngineContext& ctx,
                            const std::vector<TupleId>& retained,
                            const std::vector<TupleId>& evicted) = 0;
};

/// Replacement policy for the engine: the single decision interface every
/// simulator now funnels into. Binary ReplacementPolicy implementations
/// attach through BinaryPolicyAdapter; CachingPolicy implementations
/// attach through the Theorem 1 reduction (engine/reduction.h) followed by
/// the same adapter.
class EnginePolicy {
 public:
  virtual ~EnginePolicy() = default;
  virtual void Reset() {}
  /// Subset of cached ∪ arrivals ids, size <= capacity.
  virtual std::vector<TupleId> SelectRetained(const EngineContext& ctx) = 0;
  /// Non-null iff the policy can run sharded; queried by
  /// ShardedStreamEngine once per Run, at entry. Default: serial only.
  virtual EngineShardScoring* shard_scoring() { return nullptr; }
  /// True when the policy consumes EngineContext::batch (so the engine
  /// should spend the per-step gather building it). Queried at Open.
  virtual bool WantsCandidateBatch() const { return false; }
  virtual const char* name() const = 0;
};

/// Per-run accounting of the engine loop. Telemetry (peak candidates,
/// ns/step) is an observer concern — attach a PerfObserver.
struct EngineRunResult {
  /// Result tuples produced from the cache over the whole run.
  std::int64_t total_results = 0;
  /// Result tuples produced at times >= warmup (the paper's metric).
  std::int64_t counted_results = 0;
};

/// The unified step-loop core.
class StreamEngine {
 public:
  struct Options {
    /// Cache capacity k.
    std::size_t capacity = 10;
    /// Results produced before this time are not counted.
    Time warmup = 0;
    /// Sliding-window length (Section 7); nullopt = regular join.
    std::optional<Time> window;
    /// Runtime probe planning for Phase 1 (engine/probe_planner.h): probe
    /// order re-planned from observed selectivities at deterministic
    /// checkpoints, empty-partner probes short-circuited, repeated
    /// (partner, value) probes served from a memo. Cost-only — results are
    /// bit-identical to the fixed-order loop. Not owned; must outlive the
    /// Run. nullptr = naive probe order.
    ProbePlanner* probe_planner = nullptr;
  };

  /// Below this capacity the Phase-1 linear probe beats the hash index
  /// (two comparisons per cached tuple vs. hash lookups plus index
  /// upkeep). The serial and sharded engines engage the value index under
  /// the same criteria.
  static constexpr std::size_t kValueIndexMinCapacity = 32;

  StreamEngine(StreamTopology topology, Options options);

  /// Simulates one realization (`streams[s]` is stream s's values; all
  /// equal length, one pointer per topology stream, none null) under
  /// `policy`. Calls policy.Reset() first, then drives `observers` in
  /// order around every step. Reuses internal buffers: a StreamEngine
  /// instance is cheap to Run repeatedly but not concurrently — the
  /// thread-safe façades construct one engine per call instead.
  ///
  /// Implemented as exactly Open + Advance + Close over a private
  /// session, so batch and incremental execution are bit-identical by
  /// construction.
  EngineRunResult Run(const std::vector<const std::vector<Value>*>& streams,
                      EnginePolicy& policy,
                      const std::vector<StepObserver*>& observers = {});

  // --- Incremental session lifecycle --------------------------------
  //
  // A session carries everything a run accumulates between steps
  // (SessionState below); the engine is a stateless executor over it.
  // Any engine with an equal topology may execute a session's next
  // Advance (one call at a time — the engine's step scratch is not
  // reentrant), which is what lets the serve layer multiplex thousands
  // of sessions over an engine per worker thread.

  /// Opens `session` for incremental execution under `options` (which
  /// override the engine's own): resets all per-run state, calls
  /// policy.Reset(), binds the observer chain and delivers OnRunBegin
  /// with length = -1 (unknown — arrivals have not happened yet).
  /// `policy`, `observers` and `options.probe_planner` are borrowed and must outlive the session.
  /// Neither a policy instance nor a planner may serve two sessions that
  /// are open at the same time. A closed SessionState can be reopened;
  /// its buffers are reused.
  void Open(SessionState& session, const Options& options,
            EnginePolicy& policy, std::vector<StepObserver*> observers = {});

  /// Advances an open session by `batch[0]->size()` steps (one pointer
  /// per topology stream, none null, all equal length; length zero is a
  /// no-op). `batch[s]` extends stream s: step times continue at
  /// `session.now`, so warmup and windows keep their absolute meaning.
  void Advance(SessionState& session,
               const std::vector<const std::vector<Value>*>& batch);

  /// Progress so far. The engine buffers nothing between steps — arrival
  /// queueing lives in serve::SessionScheduler, which drains its queues
  /// through Advance — so Drain is a read, kept for lifecycle symmetry.
  const EngineRunResult& Drain(const SessionState& session) const;

  /// Delivers OnRunEnd (length = steps actually executed), marks the
  /// session closed and returns its final result.
  EngineRunResult Close(SessionState& session);

  const StreamTopology& topology() const { return topology_; }
  const Options& options() const { return options_; }

 private:
  /// Open with a length already known (batch Run): OnRunBegin reports it
  /// instead of the incremental -1 sentinel.
  void OpenWithLength(SessionState& session, const Options& options,
                      EnginePolicy& policy,
                      std::vector<StepObserver*> observers,
                      Time known_length);

  StreamTopology topology_;
  Options options_;

  /// Session backing Run(); lazily built, reused across calls so the
  /// historical "cheap to Run repeatedly" contract still holds.
  std::unique_ptr<SessionState> run_session_;

  // Per-step scratch (cleared or rebuilt every step), hoisted so the
  // steady state allocates nothing. This is what makes an engine cheap
  // to share across sessions — and what makes Advance non-reentrant.
  std::vector<StreamTuple> new_cache_;
  std::vector<StreamTuple> arrivals_;
  /// The commit's id -> candidate position table and kept flags.
  RetentionResolver retention_;
  // SoA lanes of the per-step CandidateBatch (cached then arrivals),
  // rebuilt each step for sessions whose policy wants the batch.
  std::vector<Value> batch_values_;
  std::vector<Time> batch_arrivals_;
  std::vector<std::uint8_t> batch_sides_;
  std::vector<TupleId> batch_ids_;
};

/// Everything a run accumulates between steps — the engine's former
/// per-run members, carved out so one engine can execute any number of
/// interleaved sessions. Plain data; the executing engine owns all the
/// invariants. Callers treat it as an opaque token between lifecycle
/// calls, except for the cheap reads (`now`, `result`, `is_open`).
///
/// A session opened by StreamEngine (or by ShardedStreamEngine's serial
/// fallback) is engine-portable. A session opened on the sharded path
/// pins to its opening engine — the shard slots and scratch arena backing
/// it are engine-resident (`sharded_owner` below).
struct SessionState {
  /// True between Open and Close.
  bool open = false;
  /// Time of the next step == steps executed so far.
  Time now = 0;
  /// Results accumulated so far; what Drain reports mid-session.
  EngineRunResult result;

  bool is_open() const { return open; }

  // Bindings fixed at Open. None owned; all must outlive the session.
  EnginePolicy* policy = nullptr;
  std::vector<StepObserver*> observers;
  StreamEngine::Options options;
  /// Phase-1 index decision, taken once at Open (same criteria as the
  /// batch run: no window, capacity >= kValueIndexMinCapacity).
  bool use_value_index = false;
  /// Build the per-step CandidateBatch for the policy; decided once at
  /// Open from EnginePolicy::WantsCandidateBatch().
  bool batch_scoring = false;

  // The join state proper: the cache selected at the previous step, each
  // stream's value history, and the Phase-1 acceleration structures.
  std::vector<StreamTuple> cache;
  std::vector<StreamHistory> histories;
  /// Value -> cached-tuple count, per stream.
  std::vector<std::unordered_map<Value, std::int64_t>> value_index;
  /// Cached tuples per stream; maintained only when a probe planner is
  /// attached (backs its empty-partner short-circuit).
  std::vector<std::int64_t> stream_counts;

  // Set only when a ShardedStreamEngine opened this session on its
  // sharded path: that engine must execute every later lifecycle call
  // (its shard slots live in the engine, keyed to this session).
  ShardedStreamEngine* sharded_owner = nullptr;
  EngineShardScoring* scoring = nullptr;
};

/// Adapts a binary ReplacementPolicy to the engine interface for
/// two-stream topologies: stream 0 plays R, stream 1 plays S, and ids pass
/// through unchanged (StreamTupleIdAt(2, s, t) == TupleIdAt(side, t)), so
/// the policy's view is bit-identical to the pre-engine JoinSimulator's.
class BinaryPolicyAdapter final : public EnginePolicy,
                                  public EngineShardScoring {
 public:
  /// `policy` is not owned and must outlive the adapter.
  explicit BinaryPolicyAdapter(ReplacementPolicy* policy)
      : policy_(policy) {}

  void Reset() override;
  std::vector<TupleId> SelectRetained(const EngineContext& ctx) override;
  const char* name() const override { return policy_->name(); }

  /// Batch-building decision passes through to the wrapped policy.
  bool WantsCandidateBatch() const override {
    return policy_->WantsCandidateBatch();
  }

  /// Sharded when the wrapped binary policy is: ShardBeginStep builds the
  /// Tuple mirrors (stable through the step), the per-tuple calls convert
  /// StreamTuple -> Tuple on the stack and delegate.
  EngineShardScoring* shard_scoring() override;
  bool ShardBeginStep(const EngineContext& ctx,
                      std::vector<TupleId>* decided) override;
  std::unique_ptr<ShardScratch> MakeShardScratch() override;
  std::optional<ShardKey> ShardScoreCached(const StreamTuple& tuple,
                                           const EngineContext& ctx,
                                           ShardScratch* scratch) override;
  std::optional<ShardKey> ShardScoreArrival(
      const StreamTuple& tuple, const EngineContext& ctx) override;
  void ShardEndStep(const EngineContext& ctx,
                    const std::vector<TupleId>& retained,
                    const std::vector<TupleId>& evicted) override;
  /// Batch shard scoring delegates to the wrapped policy's kernel; the
  /// SoA lanes pass through unchanged (side == stream index for binary).
  bool ShardBatchScorable() const override;
  void ShardScoreCachedBatch(const CandidateBatch& batch,
                             const EngineContext& ctx, ShardScratch* scratch,
                             double* score_scratch, ShardKey* out) override;

 private:
  /// Rebuilds cached_/arrivals_/binary_ctx_ from the engine context.
  void BuildBinaryContext(const EngineContext& ctx);

  ReplacementPolicy* policy_;
  // Mirrors of the engine's cache/arrivals in binary Tuple form, reused
  // across steps.
  std::vector<Tuple> cached_;
  std::vector<Tuple> arrivals_;
  /// Points into cached_/arrivals_; stable for the duration of one step of
  /// the sharded protocol (rebuilt by ShardBeginStep).
  PolicyContext binary_ctx_;
  /// Wrapped policy's shard interface; set by shard_scoring().
  PolicyShardScoring* binary_shard_ = nullptr;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_STREAM_ENGINE_H_
