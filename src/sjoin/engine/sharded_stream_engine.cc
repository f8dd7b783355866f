#include "sjoin/engine/sharded_stream_engine.h"

#include <algorithm>
#include <utility>

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/ranked_select.h"

namespace sjoin {

ShardedStreamEngine::ShardedStreamEngine(StreamTopology topology,
                                         Options options)
    : options_(options),
      serial_(std::move(topology),
              StreamEngine::Options{.capacity = options.capacity,
                                    .warmup = options.warmup,
                                    .window = options.window}),
      num_shards_(static_cast<std::uint64_t>(
          options.shards > 1 ? options.shards : 1)) {
  SJOIN_CHECK_GE(options_.shards, 1);
}

void ShardedStreamEngine::SortRun(ScoredEntry* run, std::size_t size) {
  RankTopK(run, run + size, size,
           [](const ScoredEntry& a, const ScoredEntry& b) {
             return ShardKeyBetter(a.key, b.key);
           });
}

EngineShardScoring* ShardedStreamEngine::DecideScoring(
    EnginePolicy& policy) {
  // Sharding needs a score-decomposable policy and more than one shard.
  // Either executor produces bit-identical results, which is exactly why
  // the fallback must leave a trace: a "sharded" benchmark or serve run
  // that quietly measured the serial path would report the wrong thing
  // while producing the right numbers.
  if (options_.shards <= 1) {
    fallback_reason_ = "shards <= 1: sharding not requested";
    return nullptr;
  }
  EngineShardScoring* scoring = policy.shard_scoring();
  if (scoring == nullptr) {
    fallback_reason_ = "policy is serial-only (no shard scoring)";
    return nullptr;
  }
  fallback_reason_ = nullptr;
  return scoring;
}

EngineRunResult ShardedStreamEngine::Run(
    const std::vector<const std::vector<Value>*>& streams,
    EnginePolicy& policy, const std::vector<StepObserver*>& observers) {
  // The serial/sharded decision is taken here, once per run.
  EngineShardScoring* scoring = DecideScoring(policy);
  if (scoring == nullptr) {
    return serial_.Run(streams, policy, observers);
  }
  const int n = serial_.topology().num_streams();
  SJOIN_CHECK_EQ(static_cast<int>(streams.size()), n);
  for (const std::vector<Value>* stream : streams) {
    SJOIN_CHECK(stream != nullptr);
  }
  const Time len = static_cast<Time>(streams[0]->size());
  for (const std::vector<Value>* stream : streams) {
    SJOIN_CHECK_EQ(static_cast<Time>(stream->size()), len);
  }
  if (run_session_ == nullptr) {
    run_session_ = std::make_unique<SessionState>();
  }
  OpenSharded(*run_session_, policy, *scoring, observers, len);
  AdvanceSharded(*run_session_, streams);
  return CloseSharded(*run_session_);
}

void ShardedStreamEngine::Open(SessionState& session, EnginePolicy& policy,
                               std::vector<StepObserver*> observers) {
  EngineShardScoring* scoring = DecideScoring(policy);
  if (scoring == nullptr) {
    serial_.Open(session, serial_.options(), policy, std::move(observers));
    return;
  }
  OpenSharded(session, policy, *scoring, std::move(observers),
              /*known_length=*/-1);
}

void ShardedStreamEngine::Advance(
    SessionState& session,
    const std::vector<const std::vector<Value>*>& batch) {
  if (session.sharded_owner == nullptr) {
    serial_.Advance(session, batch);
    return;
  }
  SJOIN_CHECK_MSG(session.sharded_owner == this,
                  "sharded session advanced by an engine that did not "
                  "open it");
  AdvanceSharded(session, batch);
}

const EngineRunResult& ShardedStreamEngine::Drain(
    const SessionState& session) const {
  SJOIN_CHECK_MSG(session.open, "Drain on a session that is not open");
  return session.result;
}

EngineRunResult ShardedStreamEngine::Close(SessionState& session) {
  if (session.sharded_owner == nullptr) {
    return serial_.Close(session);
  }
  SJOIN_CHECK_MSG(session.sharded_owner == this,
                  "sharded session closed by an engine that did not "
                  "open it");
  return CloseSharded(session);
}

void ShardedStreamEngine::ProcessShard(const EngineContext& ctx,
                                       EngineShardScoring& scoring,
                                       std::size_t shard) {
  const StreamTopology& topology = serial_.topology();
  ShardSlot& slot = slots_[shard];
  // Every cached tuple lands in exactly one of scored/dropped, so
  // cache.size() bounds both.
  const std::size_t lanes = slot.cache.size();
  slot.scored = arena_.AllocArray<ScoredEntry>(lanes);
  slot.scored_size = 0;
  slot.dropped = arena_.AllocArray<StreamTuple>(lanes);
  slot.dropped_size = 0;
  if (run_batch_scoring_) {
    slot.batch_values = arena_.AllocArray<Value>(lanes);
    slot.batch_arrivals = arena_.AllocArray<Time>(lanes);
    slot.batch_sides = arena_.AllocArray<std::uint8_t>(lanes);
    slot.batch_ids = arena_.AllocArray<TupleId>(lanes);
    slot.batch_scores = arena_.AllocArray<double>(lanes);
    slot.batch_keys = arena_.AllocArray<ShardKey>(lanes);
  }
  slot.produced = 0;
  for (const StreamTuple& arrival : arrivals_) {
    if (ShardOf(arrival.value) != shard) continue;
    if (run_use_value_index_) {
      for (int partner : topology.PartnersOf(arrival.stream)) {
        const auto& index = slot.value_index[static_cast<std::size_t>(partner)];
        auto it = index.find(arrival.value);
        if (it != index.end()) slot.produced += it->second;
      }
    } else {
      for (const StreamTuple& cached : slot.cache) {
        if (!InWindow(cached, ctx.now, ctx.window)) continue;
        if (cached.value != arrival.value) continue;
        if (topology.Joins(cached.stream, arrival.stream)) {
          ++slot.produced;
        }
      }
    }
  }
  if (run_batch_scoring_ && lanes > 0) {
    // Batch path: gather the shard's cached run into SoA lanes and score
    // it with one fused kernel call. ShardBatchScorable policies never
    // exclude cached tuples, so every lane lands in scored and dropped
    // stays empty.
    for (std::size_t i = 0; i < lanes; ++i) {
      const StreamTuple& cached = slot.cache[i];
      slot.batch_values[i] = cached.value;
      slot.batch_arrivals[i] = cached.arrival;
      slot.batch_sides[i] = static_cast<std::uint8_t>(cached.stream);
      slot.batch_ids[i] = cached.id;
    }
    CandidateBatch batch;
    batch.size = lanes;
    batch.values = slot.batch_values;
    batch.arrivals = slot.batch_arrivals;
    batch.sides = slot.batch_sides;
    batch.ids = slot.batch_ids;
    scoring.ShardScoreCachedBatch(batch, ctx, slot.scratch.get(),
                                  slot.batch_scores, slot.batch_keys);
    for (std::size_t i = 0; i < lanes; ++i) {
      slot.scored[slot.scored_size++] = {slot.batch_keys[i], slot.cache[i]};
    }
  } else {
    for (const StreamTuple& cached : slot.cache) {
      std::optional<ShardKey> key =
          scoring.ShardScoreCached(cached, ctx, slot.scratch.get());
      if (key.has_value()) {
        slot.scored[slot.scored_size++] = {*key, cached};
      } else {
        slot.dropped[slot.dropped_size++] = cached;
      }
    }
  }
  SortRun(slot.scored, slot.scored_size);
}

void ShardedStreamEngine::OpenSharded(SessionState& session,
                                      EnginePolicy& policy,
                                      EngineShardScoring& scoring,
                                      std::vector<StepObserver*> observers,
                                      Time known_length) {
  const StreamTopology& topology = serial_.topology();
  const int n = topology.num_streams();
  SJOIN_CHECK_MSG(!session.open, "Open on a session that is already open");
  SJOIN_CHECK_MSG(!sharded_session_open_,
                  "only one sharded session may be open per engine (its "
                  "slot and arena state is engine-resident)");
  sharded_session_open_ = true;

  session.open = true;
  session.now = 0;
  session.result = EngineRunResult();
  session.policy = &policy;
  session.observers = std::move(observers);
  session.options = serial_.options();
  session.sharded_owner = this;
  session.scoring = &scoring;

  policy.Reset();

  const auto num_shards = static_cast<std::size_t>(options_.shards);
  const bool use_value_index =
      !options_.window.has_value() &&
      options_.capacity >= StreamEngine::kValueIndexMinCapacity;
  run_use_value_index_ = use_value_index;
  // Batch-kernel decision, once per Open (serial code): a batch-scorable
  // policy always scores whole shard runs through its kernel.
  run_batch_scoring_ = scoring.ShardBatchScorable();

  slots_.clear();
  slots_.resize(num_shards);
  for (ShardSlot& slot : slots_) {
    slot.cache.reserve(options_.capacity);
    slot.value_index.assign(static_cast<std::size_t>(n), {});
    slot.scratch = scoring.MakeShardScratch();
  }
  cache_.clear();
  cache_.reserve(options_.capacity);
  new_cache_.reserve(options_.capacity);
  arrivals_.reserve(static_cast<std::size_t>(n));
  histories_.assign(static_cast<std::size_t>(n), StreamHistory());
  arrival_scored_.reserve(static_cast<std::size_t>(n));
  retained_.reserve(options_.capacity + static_cast<std::size_t>(n));
  evicted_.reserve(options_.capacity + static_cast<std::size_t>(n));
  decided_.reserve(options_.capacity + static_cast<std::size_t>(n));
  retention_.Reserve(options_.capacity + static_cast<std::size_t>(n));
  // At most num_shards + 1 runs enter the cascade, so it performs at most
  // num_shards pairwise merges per step across ceil(log2) levels.
  std::size_t levels = 0;
  for (std::size_t runs = num_shards + 1; runs > 1; runs = (runs + 1) / 2) {
    ++levels;
  }
  merge_runs_.reserve(num_shards + 1);
  next_runs_.reserve(num_shards + 1);

  // Worst-case per-step arena demand: the shards partition at most the
  // whole cache (capacity scored entries + capacity dropped tuples), and
  // each cascade level's merge outputs hold at most capacity + n entries.
  // Reserving that up front makes steady-state steps allocation-free,
  // which the validation build asserts via the growth-event baseline.
  // Batch runs additionally carve per-shard SoA lanes and kernel scratch
  // (six spans per shard, capacity lanes in total). The 64-byte terms
  // cover per-span alignment padding.
  const std::size_t batch_lane_bytes =
      run_batch_scoring_
          ? options_.capacity *
                    (sizeof(Value) + sizeof(Time) + sizeof(std::uint8_t) +
                     sizeof(TupleId) + sizeof(double) + sizeof(ShardKey)) +
                6 * num_shards * 64
          : 0;
  const std::size_t arena_bytes =
      (options_.capacity + levels * (options_.capacity +
                                     static_cast<std::size_t>(n))) *
          sizeof(ScoredEntry) +
      options_.capacity * sizeof(StreamTuple) +
      (2 * num_shards + 2 * levels + 8) * 64 + batch_lane_bytes;
  arena_.Reserve(arena_bytes);
  arena_growth_baseline_ = arena_.growth_events();

  session.use_value_index = use_value_index;

  EngineRunView run_view;
  run_view.topology = &topology;
  run_view.capacity = options_.capacity;
  run_view.warmup = options_.warmup;
  run_view.window = options_.window;
  run_view.length = known_length;
  for (StepObserver* observer : session.observers) {
    observer->OnRunBegin(run_view);
  }
  // An observer that disables sharded scoring during OnRunBegin (e.g. a
  // ScoreTraceObserver installing a score observer) would invalidate the
  // decision already taken above; fail loudly instead of racing.
  SJOIN_CHECK_MSG(policy.shard_scoring() != nullptr,
                  "an observer disabled sharded scoring after the engine "
                  "committed to it; run score tracers with shards = 1");
}

void ShardedStreamEngine::AdvanceSharded(
    SessionState& session,
    const std::vector<const std::vector<Value>*>& batch) {
  SJOIN_CHECK_MSG(session.open, "Advance on a session that is not open");
  const StreamTopology& topology = serial_.topology();
  const int n = topology.num_streams();
  SJOIN_CHECK_EQ(static_cast<int>(batch.size()), n);
  for (const std::vector<Value>* stream : batch) {
    SJOIN_CHECK(stream != nullptr);
  }
  const Time steps = static_cast<Time>(batch[0]->size());
  for (const std::vector<Value>* stream : batch) {
    SJOIN_CHECK_EQ(static_cast<Time>(stream->size()), steps);
  }

  EngineShardScoring& scoring = *session.scoring;
  const std::vector<StepObserver*>& observers = session.observers;
  const bool use_value_index = run_use_value_index_;
  const auto num_shards = static_cast<std::size_t>(options_.shards);

  for (Time i = 0; i < steps; ++i) {
    const Time t = session.now;
    arrivals_.clear();
    for (int s = 0; s < n; ++s) {
      arrivals_.push_back(
          {StreamTupleIdAt(n, s, t), s,
           (*batch[static_cast<std::size_t>(s)])
               [static_cast<std::size_t>(i)],
           t});
    }
    for (int s = 0; s < n; ++s) {
      histories_[static_cast<std::size_t>(s)].Append(
          arrivals_[static_cast<std::size_t>(s)].value);
    }

    EngineContext ctx;
    ctx.now = t;
    ctx.capacity = options_.capacity;
    ctx.cached = &cache_;
    ctx.arrivals = &arrivals_;
    ctx.histories = &histories_;
    ctx.window = options_.window;

    decided_.clear();
    const bool scored_step = scoring.ShardBeginStep(ctx, &decided_);

    std::int64_t produced = 0;
    retained_.clear();
    new_cache_.clear();
    if (scored_step) {
      // Per shard, in shard order: Phase-1 probes, cached scoring and the
      // shard-local sort, into scored/dropped runs carved from the arena.
      arena_.Reset();
      for (std::size_t shard = 0; shard < num_shards; ++shard) {
        ProcessShard(ctx, scoring, shard);
        produced += slots_[shard].produced;
      }

      // Arrivals are scored serially, in arrival order: policies may
      // mutate state here (HEEB inserts incremental entries).
      arrival_scored_.clear();
      for (const StreamTuple& arrival : arrivals_) {
        std::optional<ShardKey> key = scoring.ShardScoreArrival(arrival, ctx);
        if (key.has_value()) arrival_scored_.push_back({*key, arrival});
      }
      SortRun(arrival_scored_.data(), arrival_scored_.size());

      // Global merge of the shard runs plus the arrival run: a balanced
      // cascade of pairwise merges, ~log2(shards + 1) levels of tight
      // two-way merges instead of a (shards + 1)-wide head scan per pop.
      // std::merge is stable and the keys form a strict total order
      // (unique minors), so every pairing yields exactly the serial
      // engine's sorted candidate order: same retained prefix, same cache
      // order.
      merge_runs_.clear();
      for (ShardSlot& slot : slots_) {
        if (slot.scored_size > 0) {
          merge_runs_.push_back({slot.scored, slot.scored_size});
        }
      }
      if (!arrival_scored_.empty()) {
        merge_runs_.push_back(
            {arrival_scored_.data(), arrival_scored_.size()});
      }
      while (merge_runs_.size() > 1) {
        next_runs_.clear();
        for (std::size_t i = 0; i + 1 < merge_runs_.size(); i += 2) {
          const MergeRun& a = merge_runs_[i];
          const MergeRun& b = merge_runs_[i + 1];
          ScoredEntry* out = arena_.AllocArray<ScoredEntry>(a.size + b.size);
          std::merge(a.data, a.data + a.size, b.data, b.data + b.size, out,
                     [](const ScoredEntry& x, const ScoredEntry& y) {
                       return ShardKeyBetter(x.key, y.key);
                     });
          next_runs_.push_back({out, a.size + b.size});
        }
        if (merge_runs_.size() % 2 == 1) {
          next_runs_.push_back(merge_runs_.back());
        }
        merge_runs_.swap(next_runs_);
      }
      const MergeRun merged =
          merge_runs_.empty()
              ? MergeRun{arrival_scored_.data(), arrival_scored_.size()}
              : merge_runs_.front();

      // Commit. The merged prefix is the retained set and the suffix is
      // the eviction list — no retained-set hashing anywhere. A candidate
      // is an arrival iff its arrival stamp is this step (cached tuples
      // were admitted strictly earlier), which is what decides the index
      // delta direction. Rebuilding every shard cache from the retained
      // prefix keeps slots in globally sorted order — that is what makes
      // next step's runs nearly sorted for SortRun.
      evicted_.clear();
      const std::size_t keep = std::min(options_.capacity, merged.size);
      for (std::size_t i = 0; i < keep; ++i) {
        const StreamTuple& tuple = merged.data[i].tuple;
        retained_.push_back(tuple.id);
        new_cache_.push_back(tuple);
        if (use_value_index && tuple.arrival == t) {
          ++slots_[ShardOf(tuple.value)]
                .value_index[static_cast<std::size_t>(tuple.stream)]
                            [tuple.value];
        }
      }
      const auto evict = [this, use_value_index, t](const StreamTuple& tuple) {
        evicted_.push_back(tuple.id);
        if (!use_value_index || tuple.arrival == t) return;  // Never indexed.
        ShardSlot& slot = slots_[ShardOf(tuple.value)];
        auto& index =
            slot.value_index[static_cast<std::size_t>(tuple.stream)];
        auto it = index.find(tuple.value);
        if (--it->second == 0) index.erase(it);
      };
      for (std::size_t i = keep; i < merged.size; ++i) {
        evict(merged.data[i].tuple);
      }
      for (ShardSlot& slot : slots_) {
        for (std::size_t i = 0; i < slot.dropped_size; ++i) {
          evict(slot.dropped[i]);
        }
      }
      // Arrivals the policy scored as nullopt were never retention
      // candidates, but they still belong to candidates \ retained.
      if (arrival_scored_.size() < arrivals_.size()) {
        for (const StreamTuple& arrival : arrivals_) {
          bool scored = false;
          for (const ScoredEntry& entry : arrival_scored_) {
            if (entry.tuple.id == arrival.id) {
              scored = true;
              break;
            }
          }
          if (!scored) evicted_.push_back(arrival.id);
        }
      }
      for (ShardSlot& slot : slots_) slot.cache.clear();
      for (const StreamTuple& tuple : new_cache_) {
        slots_[ShardOf(tuple.value)].cache.push_back(tuple);
      }
    } else {
      // Decided step (e.g. the reduction's cache-hit fast path): nothing
      // is scored; probe inline over the shard structures and validate the
      // decided ids the way the serial engine validates SelectRetained.
      for (const StreamTuple& arrival : arrivals_) {
        const ShardSlot& slot = slots_[ShardOf(arrival.value)];
        if (use_value_index) {
          for (int partner : topology.PartnersOf(arrival.stream)) {
            const auto& index =
                slot.value_index[static_cast<std::size_t>(partner)];
            auto it = index.find(arrival.value);
            if (it != index.end()) produced += it->second;
          }
        } else {
          for (const StreamTuple& cached : slot.cache) {
            if (!InWindow(cached, t, options_.window)) continue;
            if (cached.value != arrival.value) continue;
            if (topology.Joins(cached.stream, arrival.stream)) ++produced;
          }
        }
      }
      SJOIN_CHECK_LE(decided_.size(), options_.capacity);
      retention_.Resolve(cache_, arrivals_, decided_,
                         {.not_candidate =
                              "policy decided a tuple that is not a candidate",
                          .twice = "policy decided the same tuple twice"},
                         &new_cache_);
      retained_.swap(decided_);

      // Commit for a decided step: incremental swap-remove of the
      // unflagged cached positions (decided steps retain almost
      // everything, so a full rebuild would be wasted work).
      evicted_.clear();
      for (ShardSlot& slot : slots_) {
        for (std::size_t i = 0; i < slot.cache.size();) {
          const StreamTuple& tuple = slot.cache[i];
          if (retention_.kept(static_cast<std::size_t>(
                  retention_.PositionOf(tuple.id)))) {
            ++i;
            continue;
          }
          evicted_.push_back(tuple.id);
          if (use_value_index) {
            auto& index =
                slot.value_index[static_cast<std::size_t>(tuple.stream)];
            auto it = index.find(tuple.value);
            if (--it->second == 0) index.erase(it);
          }
          slot.cache[i] = slot.cache.back();
          slot.cache.pop_back();
        }
      }
      for (std::size_t a = 0; a < arrivals_.size(); ++a) {
        const StreamTuple& arrival = arrivals_[a];
        if (!retention_.kept(cache_.size() + a)) {
          evicted_.push_back(arrival.id);
          continue;
        }
        ShardSlot& slot = slots_[ShardOf(arrival.value)];
        slot.cache.push_back(arrival);
        if (use_value_index) {
          ++slot.value_index[static_cast<std::size_t>(arrival.stream)]
                            [arrival.value];
        }
      }
    }

    session.result.total_results += produced;
    const bool counted = t >= options_.warmup;
    if (counted) session.result.counted_results += produced;
    // Cache and arrival ids never collide (arrival ids are minted this
    // step), so the candidate-set size is just the sum.
    const std::size_t num_candidates = cache_.size() + arrivals_.size();
    cache_.swap(new_cache_);

    scoring.ShardEndStep(ctx, retained_, evicted_);

    if constexpr (kValidationEnabled) {
      SJOIN_VALIDATE(cache_.size() <= options_.capacity);
      // Either path's committed cache must be the retained list resolved
      // from scratch (new_cache_ now holds the previous cache).
      SJOIN_VALIDATE_MSG(
          CommitMatchesRetained(new_cache_, arrivals_, retained_, cache_),
          "committed cache differs from the policy's retained list");
      // The scored-step hot loop must never fall back to heap growth:
      // the arena was reserved for the worst case at run setup.
      SJOIN_VALIDATE_MSG(arena_.growth_events() == arena_growth_baseline_,
                         "per-step scratch outgrew the reserved arena");
      // The shard caches must partition the global cache by value shard,
      // and each shard index must match a from-scratch recount.
      std::size_t sharded_total = 0;
      for (std::size_t shard = 0; shard < num_shards; ++shard) {
        const ShardSlot& slot = slots_[shard];
        sharded_total += slot.cache.size();
        std::vector<std::unordered_map<Value, std::int64_t>> recount(
            static_cast<std::size_t>(n));
        for (const StreamTuple& tuple : slot.cache) {
          SJOIN_VALIDATE_MSG(ShardOf(tuple.value) == shard,
                             "cached tuple stored in the wrong shard");
          ++recount[static_cast<std::size_t>(tuple.stream)][tuple.value];
        }
        if (use_value_index) {
          SJOIN_VALIDATE_MSG(recount == slot.value_index,
                             "shard value index out of sync with its cache");
        }
      }
      SJOIN_VALIDATE_MSG(sharded_total == cache_.size(),
                         "shard caches out of sync with the merged cache");
      for (const StreamTuple& tuple : cache_) {
        const std::vector<StreamTuple>& shard_cache =
            slots_[ShardOf(tuple.value)].cache;
        SJOIN_VALIDATE_MSG(
            std::any_of(shard_cache.begin(), shard_cache.end(),
                        [&tuple](const StreamTuple& other) {
                          return other.id == tuple.id;
                        }),
            "merged cache tuple missing from its shard");
      }
    }

    EngineStepView step_view;
    step_view.now = t;
    step_view.produced = produced;
    step_view.counted = counted;
    step_view.num_candidates = num_candidates;
    step_view.cache = &cache_;
    step_view.arrivals = &arrivals_;
    step_view.retained = &retained_;
    for (StepObserver* observer : observers) observer->OnStep(step_view);
    session.now = t + 1;
  }
}

EngineRunResult ShardedStreamEngine::CloseSharded(SessionState& session) {
  SJOIN_CHECK_MSG(session.open, "Close on a session that is not open");
  EngineRunView run_view;
  run_view.topology = &serial_.topology();
  run_view.capacity = options_.capacity;
  run_view.warmup = options_.warmup;
  run_view.window = options_.window;
  run_view.length = session.now;
  for (StepObserver* observer : session.observers) {
    observer->OnRunEnd(run_view);
  }
  session.open = false;
  session.policy = nullptr;
  session.scoring = nullptr;
  session.sharded_owner = nullptr;
  session.observers.clear();
  sharded_session_open_ = false;
  return session.result;
}

}  // namespace sjoin
