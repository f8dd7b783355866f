#include "sjoin/core/heeb_join_policy.h"

#include <cmath>
#include <cstdlib>

#include "sjoin/common/check.h"
#include "sjoin/core/heeb.h"
#include "sjoin/core/model_repo.h"

namespace sjoin {

HeebJoinPolicy::HeebJoinPolicy(const StochasticProcess* r_process,
                               const StochasticProcess* s_process,
                               Options options)
    : r_process_(r_process),
      s_process_(s_process),
      options_(options),
      exp_lifetime_(options.alpha),
      horizon_(options.horizon > 0 ? options.horizon
                                   : ExpHorizon(options.alpha)) {
  SJOIN_CHECK(r_process != nullptr && s_process != nullptr);
  if (options_.mode == Mode::kTimeIncremental ||
      options_.mode == Mode::kValueIncremental) {
    SJOIN_CHECK_MSG(r_process_->IsIndependent() &&
                        s_process_->IsIndependent(),
                    "incremental HEEB requires independent stream variables");
    SJOIN_CHECK_MSG(options_.lifetime == nullptr,
                    "incremental HEEB is defined for L_exp only");
  }
  if (options_.mode == Mode::kValueIncremental) {
    for (const StochasticProcess* p : {r_process_, s_process_}) {
      const auto* trend = dynamic_cast<const LinearTrendProcess*>(p);
      SJOIN_CHECK_MSG(trend != nullptr,
                      "value-incremental HEEB requires linear-trend streams");
      SJOIN_CHECK_MSG(trend->slope() == std::floor(trend->slope()) &&
                          trend->slope() != 0.0,
                      "value-incremental HEEB requires a non-zero integer "
                      "slope");
    }
  }
  if (options_.mode == Mode::kWalkTable) {
    ModelRepo& repo =
        options_.repo != nullptr ? *options_.repo : ModelRepo::Global();
    for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
      const auto* walk =
          dynamic_cast<const RandomWalkProcess*>(process(Partner(side)));
      SJOIN_CHECK_MSG(walk != nullptr,
                      "walk-table HEEB requires random-walk streams");
      if (options_.lifetime == nullptr) {
        walk_table_[SideIndex(side)] =
            repo.WalkJoinHeebTable(*walk, options_.alpha, horizon_);
      } else {
        // A caller-supplied lifetime has no content-addressable identity;
        // build privately rather than risk key collisions in the repo.
        walk_table_[SideIndex(side)] = std::make_shared<const OffsetTable>(
            PrecomputeWalkJoinHeeb(*walk, *options_.lifetime, horizon_));
      }
    }
  }
  const LifetimeFn& lifetime =
      options_.lifetime != nullptr
          ? *options_.lifetime
          : static_cast<const LifetimeFn&>(exp_lifetime_);
  lifetime_flat_.reserve(static_cast<std::size_t>(horizon_));
  for (Time dt = 1; dt <= horizon_; ++dt) {
    lifetime_flat_.push_back(lifetime.At(dt));
  }
}

void HeebJoinPolicy::Reset() {
  predictions_[0].clear();
  predictions_[1].clear();
  predictions_time_ = -1;
  flat_time_ = -1;
  slots_.clear();
  slot_index_.clear();
  last_step_time_ = -1;
}

HeebJoinPolicy::CachedState* HeebJoinPolicy::FindState(TupleId id) {
  auto it = slot_index_.find(id);
  return it == slot_index_.end() ? nullptr : &slots_[it->second];
}

void HeebJoinPolicy::InsertState(const Tuple& tuple, double h) {
  slot_index_.emplace(tuple.id, slots_.size());
  slots_.push_back(
      CachedState{h, tuple.id, tuple.side, tuple.value, tuple.arrival, 0});
}

void HeebJoinPolicy::EraseState(TupleId id) {
  auto it = slot_index_.find(id);
  if (it == slot_index_.end()) return;
  std::size_t pos = it->second;
  slot_index_.erase(it);
  if (pos + 1 != slots_.size()) {
    // Swap-with-last; re-point the moved slot's index entry.
    slots_[pos] = slots_.back();
    slot_index_[slots_[pos].id] = pos;
  }
  slots_.pop_back();
}

void HeebJoinPolicy::BeginStep(const PolicyContext& ctx) {
  if (options_.mode == Mode::kWalkTable) return;

  if (options_.mode == Mode::kDirect ||
      options_.mode == Mode::kTimeIncremental) {
    // Arrivals are scored with direct sums; build this step's predictions.
    // kValueIncremental builds them lazily only when its transfer falls
    // back to a direct sum (see EnsurePredictions).
    EnsurePredictions(ctx);
  }

  if (options_.mode == Mode::kTimeIncremental ||
      options_.mode == Mode::kValueIncremental) {
    SJOIN_CHECK_MSG(!ctx.window.has_value() ||
                        options_.mode == Mode::kTimeIncremental,
                    "value-incremental HEEB does not support sliding "
                    "windows; use kDirect or kTimeIncremental");
    // Corollary 3: advance every cached H from the previous step's time to
    // now: H_t = e^{1/alpha} H_{t-1} - Pr{X^partner_t = v}. The sweep
    // walks the flat slot array in storage order; each entry's update is
    // independent, so the order only affects memory access, not results.
    if (last_step_time_ >= 0) {
      Time gap = ctx.now - last_step_time_;
      double e = std::exp(1.0 / options_.alpha);
      for (CachedState& state : slots_) {
        state.updates_since_refresh += gap;
        if (state.updates_since_refresh >= options_.refresh_interval) {
          // Re-anchor: the recurrence is an unstable iteration whose error
          // grows by e^{1/alpha} per step.
          Tuple proxy{0, state.side, state.value, state.arrival};
          state.h = DirectScore(proxy, ctx);
          state.updates_since_refresh = 0;
          continue;
        }
        for (Time step = 1; step <= gap; ++step) {
          double p = PartnerProbAt(state.side, state.value,
                                   last_step_time_ + step, ctx);
          state.h = e * state.h - p;
          if (state.h < 0.0) state.h = 0.0;  // Guard truncation drift.
        }
      }
    }
    last_step_time_ = ctx.now;
  }
}

bool HeebJoinPolicy::ShardBeginStep(const PolicyContext& ctx,
                                    std::vector<TupleId>* decided) {
  (void)decided;
  if (options_.mode == Mode::kWalkTable) return true;  // Pure lookups.
  if (options_.mode == Mode::kDirect) {
    EnsurePredictions(ctx);
    return true;
  }

  SJOIN_CHECK_MSG(!ctx.window.has_value() ||
                      options_.mode == Mode::kTimeIncremental,
                  "value-incremental HEEB does not support sliding "
                  "windows; use kDirect or kTimeIncremental");
  if (options_.mode == Mode::kTimeIncremental) EnsurePredictions(ctx);

  shard_gap_ = last_step_time_ >= 0 ? ctx.now - last_step_time_ : 0;
  shard_e_ = std::exp(1.0 / options_.alpha);
  if (shard_gap_ > 0) {
    // Entries crossing the refresh interval re-anchor with DirectScore,
    // which reads this step's predictions; build them up front so the
    // parallel phase never mutates shared state.
    for (const CachedState& state : slots_) {
      if (state.updates_since_refresh + shard_gap_ >=
          options_.refresh_interval) {
        EnsurePredictions(ctx);
        break;
      }
    }
    // One partner pmf per (cached side, elapsed step), shared by every
    // entry of that side during the lazy advance.
    for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
      StreamSide partner = Partner(side);
      auto& pmfs = advance_pmfs_[SideIndex(side)];
      pmfs.resize(static_cast<std::size_t>(shard_gap_));
      for (Time step = 1; step <= shard_gap_; ++step) {
        process(partner)->PredictInto(
            *history(partner, ctx), last_step_time_ + step,
            &pmfs[static_cast<std::size_t>(step - 1)]);
      }
    }
  }
  last_step_time_ = ctx.now;
  return true;
}

std::optional<ShardKey> HeebJoinPolicy::ShardScoreCached(
    const Tuple& tuple, const PolicyContext& ctx, ShardScratch* scratch) {
  if (options_.mode != Mode::kTimeIncremental &&
      options_.mode != Mode::kValueIncremental) {
    return ScoredPolicy::ShardScoreCached(tuple, ctx, scratch);
  }
  (void)scratch;
  // Lazy Corollary 3 advance: each entry is owned by exactly one shard
  // (shards partition the value domain and an entry's value is fixed), so
  // mutating it here is race-free; the shared pmfs and predictions are
  // read-only during this phase.
  CachedState* state = FindState(tuple.id);
  SJOIN_CHECK_MSG(state != nullptr,
                  "cached tuple without incremental HEEB state");
  if (shard_gap_ > 0) {
    state->updates_since_refresh += shard_gap_;
    if (state->updates_since_refresh >= options_.refresh_interval) {
      SJOIN_CHECK_EQ(predictions_time_, ctx.now);  // Built in ShardBeginStep.
      Tuple proxy{0, state->side, state->value, state->arrival};
      state->h = DirectScore(proxy, ctx);
      state->updates_since_refresh = 0;
    } else {
      const auto& pmfs = advance_pmfs_[SideIndex(state->side)];
      for (Time step = 1; step <= shard_gap_; ++step) {
        double p =
            pmfs[static_cast<std::size_t>(step - 1)].Prob(state->value);
        state->h = shard_e_ * state->h - p;
        if (state->h < 0.0) state->h = 0.0;  // Guard truncation drift.
      }
    }
  }
  // Same window guard as Score(); the entry advances either way, exactly
  // like the serial BeginStep sweep runs before Score's window check.
  double score =
      ctx.window.has_value() && !InWindow(tuple, ctx.now, ctx.window)
          ? 0.0
          : state->h;
  return ShardKey{score, tuple.arrival, tuple.id};
}

void HeebJoinPolicy::ShardScoreCachedBatch(const CandidateBatch& batch,
                                           const PolicyContext& ctx,
                                           ShardScratch* scratch,
                                           double* score_scratch,
                                           ShardKey* out) {
  if (options_.mode != Mode::kTimeIncremental &&
      options_.mode != Mode::kValueIncremental) {
    ScoredPolicy::ShardScoreCachedBatch(batch, ctx, scratch, score_scratch,
                                        out);
    return;
  }
  (void)scratch;
  (void)score_scratch;
  // The lane loop is ShardScoreCached's body over the shard's cached run:
  // advance-in-place, then window-guard the advanced h. Lane order matches
  // the scalar per-tuple order, and every slot is touched by exactly one
  // shard, so the advance stays race-free and bit-identical.
  const bool windowed = ctx.window.has_value();
  const Time w = windowed ? *ctx.window : 0;
  for (std::size_t i = 0; i < batch.size; ++i) {
    CachedState* state = FindState(batch.ids[i]);
    SJOIN_CHECK_MSG(state != nullptr,
                    "cached tuple without incremental HEEB state");
    if (shard_gap_ > 0) {
      state->updates_since_refresh += shard_gap_;
      if (state->updates_since_refresh >= options_.refresh_interval) {
        SJOIN_CHECK_EQ(predictions_time_, ctx.now);
        Tuple proxy{0, state->side, state->value, state->arrival};
        state->h = DirectScore(proxy, ctx);
        state->updates_since_refresh = 0;
      } else {
        const auto& pmfs = advance_pmfs_[SideIndex(state->side)];
        for (Time step = 1; step <= shard_gap_; ++step) {
          double p =
              pmfs[static_cast<std::size_t>(step - 1)].Prob(state->value);
          state->h = shard_e_ * state->h - p;
          if (state->h < 0.0) state->h = 0.0;
        }
      }
    }
    double score =
        windowed && ctx.now - batch.arrivals[i] > w ? 0.0 : state->h;
    out[i] = ShardKey{score, batch.arrivals[i],
                      static_cast<std::int64_t>(batch.ids[i])};
  }
}

double HeebJoinPolicy::PartnerProbAt(StreamSide side, Value v, Time t,
                                     const PolicyContext& ctx) const {
  StreamSide partner = Partner(side);
  return process(partner)->Predict(*history(partner, ctx), t).Prob(v);
}

void HeebJoinPolicy::EnsurePredictions(const PolicyContext& ctx) {
  const bool want_flat = options_.mode == Mode::kDirect;
  if (predictions_time_ == ctx.now &&
      (!want_flat || flat_time_ == ctx.now)) {
    return;
  }
  for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
    auto& preds = predictions_[SideIndex(side)];
    // Overwrite last step's pmfs in place: PredictInto reuses each slot's
    // mass buffer, so the rebuild is allocation-free in steady state.
    preds.resize(static_cast<std::size_t>(horizon_));
    for (Time dt = 1; dt <= horizon_; ++dt) {
      process(side)->PredictInto(*history(side, ctx), ctx.now + dt,
                                 &preds[static_cast<std::size_t>(dt - 1)]);
    }
  }
  predictions_time_ = ctx.now;
  if (want_flat) FlattenPredictions();
}

void HeebJoinPolicy::FlattenPredictions() {
  for (int s = 0; s < 2; ++s) {
    const auto& preds = predictions_[s];
    FlatPmfs& fp = flat_predictions_[s];
    fp.masses.clear();
    fp.offset.resize(preds.size());
    fp.min.resize(preds.size());
    fp.size.resize(preds.size());
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const DiscreteDistribution& pmf = preds[k];
      fp.offset[k] = fp.masses.size();
      fp.min[k] = pmf.IsEmpty() ? 0 : pmf.MinValue();
      fp.size[k] = static_cast<Value>(pmf.SupportSize());
      fp.masses.insert(fp.masses.end(), pmf.masses().begin(),
                       pmf.masses().end());
    }
  }
  flat_time_ = predictions_time_;
}

double HeebJoinPolicy::DirectScore(const Tuple& tuple,
                                   const PolicyContext& ctx) {
  EnsurePredictions(ctx);
  const LifetimeFn& lifetime =
      options_.lifetime != nullptr
          ? *options_.lifetime
          : static_cast<const LifetimeFn&>(exp_lifetime_);
  Time max_dt = horizon_;
  if (ctx.window.has_value()) {
    // Section 7: contributions stop once the tuple leaves the window.
    Time remaining = tuple.arrival + *ctx.window - ctx.now;
    if (remaining < max_dt) max_dt = remaining;
  }
  const auto& partner_preds = predictions_[SideIndex(Partner(tuple.side))];
  double h = 0.0;
  for (Time dt = 1; dt <= max_dt; ++dt) {
    h += partner_preds[static_cast<std::size_t>(dt - 1)].Prob(tuple.value) *
         lifetime.At(dt);
  }
  return h;
}

void HeebJoinPolicy::DirectBatch(const CandidateBatch& batch,
                                 const PolicyContext& ctx, double* out) {
  // BeginStep / ShardBeginStep built and flattened this step's
  // predictions; this may run inside the parallel phase, so it must not
  // rebuild them here.
  SJOIN_CHECK_EQ(flat_time_, ctx.now);
  const bool windowed = ctx.window.has_value();
  const Time w = windowed ? *ctx.window : 0;
  for (std::size_t i = 0; i < batch.size; ++i) {
    if (windowed && ctx.now - batch.arrivals[i] > w) {
      out[i] = 0.0;
      continue;
    }
    Time max_dt = horizon_;
    if (windowed) {
      Time remaining = batch.arrivals[i] + w - ctx.now;
      if (remaining < max_dt) max_dt = remaining;
    }
    const FlatPmfs& fp = flat_predictions_[SideIndex(
        Partner(static_cast<StreamSide>(batch.sides[i])))];
    const Value v = batch.values[i];
    // Same dt-ascending p * L summation as DirectScore; the gather reads
    // the identical doubles Prob() would return (exact 0.0 off-support).
    double h = 0.0;
    for (Time dt = 1; dt <= max_dt; ++dt) {
      const std::size_t k = static_cast<std::size_t>(dt - 1);
      const Value off = v - fp.min[k];
      const double p =
          off >= 0 && off < fp.size[k]
              ? fp.masses[fp.offset[k] + static_cast<std::size_t>(off)]
              : 0.0;
      h += p * lifetime_flat_[k];
    }
    out[i] = h;
  }
}

void HeebJoinPolicy::WalkTableBatch(const CandidateBatch& batch,
                                    const PolicyContext& ctx,
                                    double* out) const {
  // Hoist the per-side table spans and partner anchors out of the lane
  // loop; Score() re-derives the anchor per tuple.
  const double* data[2];
  Value base[2];
  Value size[2];
  for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
    const int s = SideIndex(side);
    const OffsetTable& table = *walk_table_[s];
    data[s] = table.values().data();
    size[s] = static_cast<Value>(table.values().size());
    StreamSide partner = Partner(side);
    const StreamHistory* partner_history = history(partner, ctx);
    const auto* walk =
        static_cast<const RandomWalkProcess*>(process(partner));
    const Value last = partner_history->empty() ? walk->initial_value()
                                                : partner_history->back();
    // At(v - last) indexes values()[v - last - min_offset]; fold the two
    // subtractions into one per-side base.
    base[s] = last + table.min_offset();
  }
  const bool windowed = ctx.window.has_value();
  const Time w = windowed ? *ctx.window : 0;
  for (std::size_t i = 0; i < batch.size; ++i) {
    if (windowed && ctx.now - batch.arrivals[i] > w) {
      out[i] = 0.0;
      continue;
    }
    const int s = batch.sides[i];
    const Value off = batch.values[i] - base[s];
    out[i] = off >= 0 && off < size[s]
                 ? data[s][static_cast<std::size_t>(off)]
                 : 0.0;
  }
}

void HeebJoinPolicy::ScoreBatchInto(const CandidateBatch& batch,
                                    const PolicyContext& ctx, double* out) {
  switch (options_.mode) {
    case Mode::kDirect:
      DirectBatch(batch, ctx, out);
      return;
    case Mode::kWalkTable:
      WalkTableBatch(batch, ctx, out);
      return;
    case Mode::kTimeIncremental:
    case Mode::kValueIncremental:
      // Find-or-insert state mutation defines the per-candidate order;
      // run the scalar path lane by lane.
      ScoredPolicy::ScoreBatchInto(batch, ctx, out);
      return;
  }
}

double HeebJoinPolicy::ValueIncrementalScore(const Tuple& tuple,
                                             const PolicyContext& ctx) {
  // Find the cached tuple of the same side with the nearest value. The
  // argmin tie-breaks by (distance, value, id): slot storage order differs
  // between the serial and sharded erase paths, so ties must not resolve
  // by scan order.
  const CachedState* nearest = nullptr;
  Value best_distance = 0;
  for (const CachedState& state : slots_) {
    if (state.side != tuple.side) continue;
    Value distance = std::llabs(state.value - tuple.value);
    if (nearest == nullptr || distance < best_distance ||
        (distance == best_distance &&
         (state.value < nearest->value ||
          (state.value == nearest->value && state.id < nearest->id)))) {
      nearest = &state;
      best_distance = distance;
    }
  }
  if (nearest == nullptr) return DirectScore(tuple, ctx);

  const auto* partner_trend = dynamic_cast<const LinearTrendProcess*>(
      process(Partner(tuple.side)));
  Value slope = static_cast<Value>(partner_trend->slope());
  Value diff = nearest->value - tuple.value;
  if (diff % slope != 0) return DirectScore(tuple, ctx);

  // Corollary 5: H_{v,t0} = H_{v',t'} with t' = t0 + (v' - v)/a. Walk the
  // nearest tuple's H from t0 to t' with (inverse) Corollary 3 updates.
  Time t_prime = ctx.now + diff / slope;
  double h = nearest->h;
  double e = std::exp(1.0 / options_.alpha);
  if (t_prime > ctx.now) {
    for (Time t = ctx.now + 1; t <= t_prime; ++t) {
      h = e * h - PartnerProbAt(tuple.side, nearest->value, t, ctx);
      if (h < 0.0) h = 0.0;
    }
  } else {
    for (Time t = ctx.now; t > t_prime; --t) {
      h = (h + PartnerProbAt(tuple.side, nearest->value, t, ctx)) / e;
    }
  }
  return h;
}

double HeebJoinPolicy::Score(const Tuple& tuple, const PolicyContext& ctx) {
  if (ctx.window.has_value() && !InWindow(tuple, ctx.now, ctx.window)) {
    return 0.0;
  }
  switch (options_.mode) {
    case Mode::kDirect:
      return DirectScore(tuple, ctx);
    case Mode::kWalkTable: {
      const StreamHistory* partner_history =
          history(Partner(tuple.side), ctx);
      const auto* walk = static_cast<const RandomWalkProcess*>(
          process(Partner(tuple.side)));
      Value last = partner_history->empty() ? walk->initial_value()
                                            : partner_history->back();
      return walk_table_[SideIndex(tuple.side)]->At(tuple.value - last);
    }
    case Mode::kTimeIncremental:
    case Mode::kValueIncremental: {
      if (const CachedState* state = FindState(tuple.id)) return state->h;
      double h = options_.mode == Mode::kTimeIncremental
                     ? DirectScore(tuple, ctx)
                     : ValueIncrementalScore(tuple, ctx);
      InsertState(tuple, h);
      return h;
    }
  }
  return 0.0;
}

void HeebJoinPolicy::ShardEndStep(const PolicyContext& ctx,
                                  const std::vector<TupleId>& retained,
                                  const std::vector<TupleId>& evicted) {
  (void)ctx;
  (void)retained;
  if (options_.mode != Mode::kTimeIncremental &&
      options_.mode != Mode::kValueIncremental) {
    return;
  }
  // Slot state holds exactly the candidate ids at this point (last step's
  // retained set plus this step's scored arrivals), so erasing the evicted
  // ids leaves precisely the retained ones — the same post-state EndStep
  // reaches by walking every slot against a retained hash set.
  for (TupleId id : evicted) EraseState(id);
}

void HeebJoinPolicy::EndStep(const PolicyContext& ctx,
                             const std::vector<TupleId>& retained) {
  (void)ctx;
  if (options_.mode != Mode::kTimeIncremental &&
      options_.mode != Mode::kValueIncremental) {
    return;
  }
  // Drop state for evicted tuples in place — no per-step rebuild. This
  // also erases entries created for arrivals that were scored but never
  // retained, so they cannot accumulate across steps. EraseState swaps
  // the last slot into the hole, so the swapped-in slot is re-examined
  // before advancing.
  retained_scratch_.clear();
  retained_scratch_.insert(retained.begin(), retained.end());
  for (std::size_t i = 0; i < slots_.size();) {
    if (retained_scratch_.contains(slots_[i].id)) {
      ++i;
    } else {
      EraseState(slots_[i].id);
    }
  }
}

}  // namespace sjoin
