#ifndef SJOIN_CORE_HEEB_JOIN_POLICY_H_
#define SJOIN_CORE_HEEB_JOIN_POLICY_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sjoin/core/lifetime_fn.h"
#include "sjoin/core/precompute.h"
#include "sjoin/engine/scored_policy.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/random_walk_process.h"

/// \file
/// HEEB for the joining problem (Sections 4.3-4.4).
///
/// Scores every candidate tuple x by
///   H_x = Σ_{Δt>=1} Pr{X^partner_{t0+Δt} = v_x | x̄_t0} · L_x(Δt)
/// and discards the lowest-scored candidates. Several computation modes
/// implement the efficiency techniques of Section 4.4; all modes agree
/// with the direct definition (see heeb_policy_test).

namespace sjoin {

class ModelRepo;

/// HEEB replacement policy for two-stream joins.
class HeebJoinPolicy final : public ScoredPolicy {
 public:
  enum class Mode {
    /// Direct truncated sum each step. Works with any processes and any
    /// lifetime function; the universal fallback.
    kDirect,
    /// Corollary 3: H updates in O(1) per cached tuple per step. Requires
    /// L_exp and independent per-step stream variables; new arrivals are
    /// scored with the direct sum. Supports sliding windows: the window
    /// cap is a fixed absolute time (arrival + w), so the recurrence is
    /// unchanged — only the arrival-time sum is truncated (Section 7:
    /// "time-incremental computation requires very little modification").
    kTimeIncremental,
    /// Corollary 5 on top of Corollary 3: new arrivals inherit H from the
    /// cached tuple with the nearest value, shifted along the trend.
    /// Requires L_exp and LinearTrendProcess streams with equal non-zero
    /// integer slope.
    kValueIncremental,
    /// Theorem 5(2): both streams are random walks; h1 offset tables are
    /// precomputed at construction and scoring is a table lookup.
    kWalkTable,
  };

  struct Options {
    Mode mode = Mode::kDirect;
    /// L_exp parameter. Section 5 guidance: match the expected average
    /// lifetime of a cached tuple via ExpLifetime::AlphaForAverageLifetime.
    double alpha = 10.0;
    /// Truncation horizon for sums and tables; 0 derives it from alpha.
    Time horizon = 0;
    /// Optional custom lifetime function (kDirect only; not owned). When
    /// null, L_exp(alpha) is used.
    const LifetimeFn* lifetime = nullptr;
    /// Incremental modes only: recompute H directly after this many
    /// incremental updates. The Corollary 3 recurrence amplifies numeric
    /// error by e^{1/alpha} per step (an unstable fixed-point iteration),
    /// so long-cached tuples need periodic re-anchoring.
    Time refresh_interval = 64;
    /// kWalkTable: the repo the h1 tables are borrowed from (not owned);
    /// nullptr = ModelRepo::Global(). A custom `lifetime` is not
    /// content-addressable, so it forces a private build instead.
    ModelRepo* repo = nullptr;
  };

  /// Processes are not owned and must outlive the policy.
  HeebJoinPolicy(const StochasticProcess* r_process,
                 const StochasticProcess* s_process, Options options);

  void Reset() override;

  const char* name() const override { return "HEEB"; }

  // Sharded execution (see scored_policy.h). All four modes are
  // score-decomposable. The incremental modes replace BeginStep's eager
  // Corollary 3 sweep with a lazy per-tuple advance inside the parallel
  // scoring phase, driven by per-step partner pmfs that ShardBeginStep
  // builds once and shares across every cached tuple of a side — the
  // serial sweep re-predicts that same pmf once per tuple, which is the
  // dominant cost the sharded hot path removes. Results are bit-identical
  // (PredictInto matches Predict bitwise; the advance arithmetic is
  // unchanged).
  bool ShardBeginStep(const PolicyContext& ctx,
                      std::vector<TupleId>* decided) override;
  std::optional<ShardKey> ShardScoreCached(const Tuple& tuple,
                                           const PolicyContext& ctx,
                                           ShardScratch* scratch) override;
  /// Batched shard scoring. Direct and walk-table modes route through the
  /// stateless ScoreBatchInto kernels; the incremental modes run the same
  /// lazy Corollary 3 advance as ShardScoreCached lane by lane over the
  /// flat slot state (each slot is owned by exactly one shard, so the
  /// mutation stays race-free).
  void ShardScoreCachedBatch(const CandidateBatch& batch,
                             const PolicyContext& ctx, ShardScratch* scratch,
                             double* score_scratch, ShardKey* out) override;
  /// Drops incremental state for exactly the evicted ids — O(evicted),
  /// where the serial EndStep pays an O(cache) retained-set walk.
  void ShardEndStep(const PolicyContext& ctx,
                    const std::vector<TupleId>& retained,
                    const std::vector<TupleId>& evicted) override;

 protected:
  bool ShardScorable() const override { return true; }
  bool BatchScorable() const override { return true; }
  void BeginStep(const PolicyContext& ctx) override;
  double Score(const Tuple& tuple, const PolicyContext& ctx) override;
  /// Batched scoring kernels. kWalkTable gathers from the per-side h1
  /// tables with the partner anchor hoisted out of the lane loop;
  /// kDirect walks the flattened predictions (one contiguous mass array
  /// per side) in the same dt-ascending per-lane order as DirectScore, so
  /// scores are bit-identical to the scalar path. The incremental modes
  /// fall back to per-lane Score() — their find-or-insert state mutation
  /// defines the scoring order.
  void ScoreBatchInto(const CandidateBatch& batch, const PolicyContext& ctx,
                      double* out) override;
  void EndStep(const PolicyContext& ctx,
               const std::vector<TupleId>& retained) override;

 private:
  const StochasticProcess* process(StreamSide side) const {
    return side == StreamSide::kR ? r_process_ : s_process_;
  }
  const StreamHistory* history(StreamSide side,
                               const PolicyContext& ctx) const {
    return side == StreamSide::kR ? ctx.history_r : ctx.history_s;
  }

  /// Direct truncated-sum H for a tuple, honoring the sliding window.
  double DirectScore(const Tuple& tuple, const PolicyContext& ctx);

  /// Builds this step's predictive pmfs if not already current. In
  /// kDirect, also flattens them for the batch kernel (serial call sites
  /// only; the parallel phase reads).
  void EnsurePredictions(const PolicyContext& ctx);

  /// Copies predictions_ into the contiguous per-side layout the kDirect
  /// batch kernel gathers from.
  void FlattenPredictions();

  /// Probability that the partner of `side` produces `v` at time `t`.
  double PartnerProbAt(StreamSide side, Value v, Time t,
                       const PolicyContext& ctx) const;

  /// Corollary 5 transfer for a new arrival (kValueIncremental).
  double ValueIncrementalScore(const Tuple& tuple, const PolicyContext& ctx);

  /// ScoreBatchInto bodies for the stateless modes.
  void DirectBatch(const CandidateBatch& batch, const PolicyContext& ctx,
                   double* out);
  void WalkTableBatch(const CandidateBatch& batch, const PolicyContext& ctx,
                      double* out) const;

  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  Options options_;
  ExpLifetime exp_lifetime_;
  Time horizon_;

  // kDirect / arrival scoring: partner predictive pmfs for the current
  // step, indexed [stream][dt-1].
  std::vector<DiscreteDistribution> predictions_[2];
  Time predictions_time_ = -1;

  // kDirect batch kernel: predictions_ flattened to one contiguous mass
  // array per side plus per-dt (offset, support min, support size) so the
  // hot loop is a bounds-checked gather with no pointer chasing. Rebuilt
  // by FlattenPredictions whenever predictions_ changes.
  struct FlatPmfs {
    std::vector<double> masses;       // Concatenated per-dt mass buffers.
    std::vector<std::size_t> offset;  // Start of dt's masses, per dt.
    std::vector<Value> min;           // Support min per dt (0 if empty).
    std::vector<Value> size;          // Support size per dt.
  };
  FlatPmfs flat_predictions_[2];
  Time flat_time_ = -1;
  // L(dt) for dt = 1..horizon_, precomputed at construction. The kernel
  // reads these instead of calling lifetime.At per (lane, dt); the values
  // are the same doubles, so sums stay bit-identical.
  std::vector<double> lifetime_flat_;

  // Incremental modes: H values of cached tuples in a flat slot array
  // (the hot BeginStep sweep walks contiguous memory), with a side index
  // mapping tuple id -> slot. Erasure is swap-with-last, so slot order is
  // arbitrary — every cross-slot decision (the Corollary 5 donor search)
  // must therefore be order-independent.
  struct CachedState {
    double h = 0.0;
    TupleId id = 0;
    StreamSide side = StreamSide::kR;
    Value value = 0;
    Time arrival = 0;
    Time updates_since_refresh = 0;
  };
  CachedState* FindState(TupleId id);
  void InsertState(const Tuple& tuple, double h);
  void EraseState(TupleId id);
  std::vector<CachedState> slots_;
  std::unordered_map<TupleId, std::size_t> slot_index_;
  Time last_step_time_ = -1;
  // EndStep scratch (reused across steps to avoid reallocation).
  std::unordered_set<TupleId> retained_scratch_;

  // Sharded incremental advance: elapsed steps since the previous decision
  // and the shared per-(cached side, elapsed step) partner pmfs the lazy
  // Corollary 3 advance reads. Written in ShardBeginStep (serial), read
  // only during the parallel scoring phase.
  Time shard_gap_ = 0;
  double shard_e_ = 1.0;
  std::vector<DiscreteDistribution> advance_pmfs_[2];

  // kWalkTable: per-side lookup tables (indexed by the side of the cached
  // tuple; the table is built from the partner's walk). Borrowed from the
  // ModelRepo — const-shared with every other policy on the same model.
  std::shared_ptr<const OffsetTable> walk_table_[2];
};

}  // namespace sjoin

#endif  // SJOIN_CORE_HEEB_JOIN_POLICY_H_
