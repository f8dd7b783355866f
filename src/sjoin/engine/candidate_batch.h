#ifndef SJOIN_ENGINE_CANDIDATE_BATCH_H_
#define SJOIN_ENGINE_CANDIDATE_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "sjoin/common/types.h"

/// \file
/// Structure-of-arrays view over one step's retention candidates. The
/// engines gather the candidate tuples into contiguous per-field spans —
/// once per step in the serial engine, once per shard run in the sharded
/// engine (carved from the engine's scratch arena) — so batch-scorable
/// policies can score whole runs with one fused kernel call instead of one
/// virtual Score() per tuple. The spans are borrowed: they stay valid only
/// for the duration of the SelectRetained / shard-scoring call they are
/// passed to.

namespace sjoin {

/// SoA view of a candidate run. Lane i describes one candidate; the lane
/// order is the scalar scoring order (cached tuples first, then arrivals,
/// for the serial engine; the shard's cached run for the sharded engine),
/// so per-lane results line up with the per-tuple path bit for bit.
struct CandidateBatch {
  std::size_t size = 0;
  /// Join attribute value per lane.
  const Value* values = nullptr;
  /// Arrival time per lane.
  const Time* arrivals = nullptr;
  /// Stream index per lane (== SideIndex(side) for binary topologies).
  /// Null for caching batches, whose candidates are bare values.
  const std::uint8_t* sides = nullptr;
  /// Tuple identity per lane. Null for caching batches.
  const TupleId* ids = nullptr;
};

}  // namespace sjoin

#endif  // SJOIN_ENGINE_CANDIDATE_BATCH_H_
