#ifndef SJOIN_ENGINE_RETENTION_H_
#define SJOIN_ENGINE_RETENTION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sjoin/common/check.h"
#include "sjoin/common/types.h"
#include "sjoin/common/validate.h"
#include "sjoin/engine/stream_tuple.h"

/// \file
/// The step commit's retention check, shared by both engines.
///
/// A policy answers each step with a list of candidate ids. The engine
/// resolves every id to its candidate position (cached tuples first, then
/// arrivals) through a flat open-addressing table that is allocated once
/// per run and cleared per step by bumping a generation stamp, so the
/// commit does no hashing into node containers and no allocation. The
/// resolved positions are flagged, which turns the rest of the commit
/// into plain array walks: evictees are the unflagged cached positions,
/// admissions the flagged arrivals.

namespace sjoin {

/// Flat TupleId -> position map with O(1) Clear. Linear probing over a
/// power-of-two table kept at most half full; a slot is live only when its
/// stamp equals the current generation, so Clear just advances the
/// generation. When the stamp wraps, every slot is reset once, so an entry
/// from 2^bits generations ago can never resurface. `Stamp` is a template
/// parameter so the wrap-around can be tested with a narrow stamp.
template <typename Stamp = std::uint32_t>
class CandidatePositionTable {
 public:
  /// Sizes the table for up to `max_entries` keys per generation and
  /// forgets every key. The only call that allocates.
  void Reserve(std::size_t max_entries) {
    std::size_t size = 8;
    while (size < 2 * max_entries) size *= 2;
    slots_.assign(size, Slot{});
    mask_ = size - 1;
    shift_ = 64;
    for (std::size_t s = size; s > 1; s /= 2) --shift_;
    max_entries_ = max_entries;
    generation_ = 1;  // Stamp 0 marks a slot that was never written.
    size_ = 0;
  }

  /// Starts a new generation: every key inserted before is forgotten.
  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      generation_ = 1;
    }
  }

  /// Maps `id` to `position`. Returns false (and changes nothing) when
  /// `id` is already present in this generation.
  bool Insert(TupleId id, std::uint32_t position) {
    std::size_t i = Home(id);
    while (slots_[i].stamp == generation_) {
      if (slots_[i].id == id) return false;
      i = (i + 1) & mask_;
    }
    SJOIN_CHECK_MSG(size_ < max_entries_,
                    "candidate position table is full");
    slots_[i] = Slot{id, position, generation_};
    ++size_;
    return true;
  }

  /// Position of `id` in this generation, or -1 when absent.
  std::int64_t Find(TupleId id) const {
    std::size_t i = Home(id);
    while (slots_[i].stamp == generation_) {
      if (slots_[i].id == id) return slots_[i].position;
      i = (i + 1) & mask_;
    }
    return -1;
  }

 private:
  struct Slot {
    TupleId id = 0;
    std::uint32_t position = 0;
    Stamp stamp = 0;
  };

  /// Fibonacci hashing: engine ids are t * streams + s, so consecutive
  /// ids must scatter across the table.
  std::size_t Home(TupleId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t max_entries_ = 0;
  std::size_t size_ = 0;
  Stamp generation_ = 1;
};

/// The abort messages of one retention check, so each engine keeps its
/// own wording ("retained" for SelectRetained, "decided" for a step
/// decided in ShardBeginStep).
struct RetentionMessages {
  const char* not_candidate;
  const char* twice;
};

/// Validates a policy's retained ids against one step's candidates and
/// records which candidate positions were kept.
class RetentionResolver {
 public:
  /// Sizes the scratch for steps of up to `max_candidates` candidates.
  /// Only ever grows; a call that does not grow is a no-op.
  void Reserve(std::size_t max_candidates) {
    if (max_candidates <= kept_.size()) return;
    table_.Reserve(max_candidates);
    kept_.assign(max_candidates, 0);
  }

  /// Resolves `retained` against the candidates `cached` then `arrivals`
  /// (position i < cached.size() is cached[i], the rest are arrivals).
  /// Aborts with `messages` on an id that is not a candidate or that
  /// appears twice. Appends the retained tuples to `*out` in `retained`
  /// order.
  void Resolve(const std::vector<StreamTuple>& cached,
               const std::vector<StreamTuple>& arrivals,
               const std::vector<TupleId>& retained,
               const RetentionMessages& messages,
               std::vector<StreamTuple>* out);

  /// Position of `id` among the last Resolve's candidates, or -1.
  std::int64_t PositionOf(TupleId id) const { return table_.Find(id); }

  /// True when the candidate at `position` was retained.
  bool kept(std::size_t position) const { return kept_[position] != 0; }

 private:
  CandidatePositionTable<> table_;
  std::vector<std::uint8_t> kept_;
};

inline void RetentionResolver::Resolve(
    const std::vector<StreamTuple>& cached,
    const std::vector<StreamTuple>& arrivals,
    const std::vector<TupleId>& retained, const RetentionMessages& messages,
    std::vector<StreamTuple>* out) {
  const std::size_t num_cached = cached.size();
  const std::size_t num_candidates = num_cached + arrivals.size();
  SJOIN_CHECK_LE(num_candidates, kept_.size());
  table_.Clear();
  // Candidate ids are distinct by construction: the cache went through
  // this check last step and arrival ids are minted this step.
  for (std::size_t i = 0; i < num_cached; ++i) {
    const bool fresh =
        table_.Insert(cached[i].id, static_cast<std::uint32_t>(i));
    SJOIN_VALIDATE_MSG(fresh, "two candidates share an id");
  }
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const bool fresh = table_.Insert(
        arrivals[i].id, static_cast<std::uint32_t>(num_cached + i));
    SJOIN_VALIDATE_MSG(fresh, "two candidates share an id");
  }
  std::fill_n(kept_.begin(), num_candidates, std::uint8_t{0});
  for (TupleId id : retained) {
    const std::int64_t position = table_.Find(id);
    SJOIN_CHECK_MSG(position >= 0, messages.not_candidate);
    const auto pos = static_cast<std::size_t>(position);
    SJOIN_CHECK_MSG(kept_[pos] == 0, messages.twice);
    kept_[pos] = 1;
    out->push_back(pos < num_cached ? cached[pos]
                                    : arrivals[pos - num_cached]);
  }
}

/// Validation cross-check of a commit: true when `committed` is exactly
/// `retained` resolved from scratch, by a linear scan of the candidates
/// (`cached` then `arrivals`) per id.
inline bool CommitMatchesRetained(const std::vector<StreamTuple>& cached,
                                  const std::vector<StreamTuple>& arrivals,
                                  const std::vector<TupleId>& retained,
                                  const std::vector<StreamTuple>& committed) {
  if (committed.size() != retained.size()) return false;
  const auto same = [](const StreamTuple& a, const StreamTuple& b) {
    return a.id == b.id && a.stream == b.stream && a.value == b.value &&
           a.arrival == b.arrival;
  };
  for (std::size_t i = 0; i < retained.size(); ++i) {
    const StreamTuple* found = nullptr;
    for (const std::vector<StreamTuple>* pool : {&cached, &arrivals}) {
      for (const StreamTuple& tuple : *pool) {
        if (tuple.id == retained[i]) found = &tuple;
      }
    }
    if (found == nullptr || !same(*found, committed[i])) return false;
  }
  return true;
}

}  // namespace sjoin

#endif  // SJOIN_ENGINE_RETENTION_H_
