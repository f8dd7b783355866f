#ifndef SJOIN_COMMON_SHARD_WORKERS_H_
#define SJOIN_COMMON_SHARD_WORKERS_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// Persistent fork-join workers for per-step parallel sections.
///
/// ThreadPool + TaskGroup is the right shape for coarse jobs (one
/// simulator run per task) but wrong for a step loop that fans out every
/// few microseconds: each step would pay task allocation, queue mutex
/// traffic and a condvar wake per shard. ShardWorkers instead keeps one
/// long-lived thread per worker and drives every step with a single
/// epoch-ticket release — the driver publishes a function pointer, bumps
/// an atomic epoch, and each worker runs its slice of the epoch, spinning
/// briefly (or parking when idle) between steps. Nothing in the per-epoch
/// protocol allocates, locks or wakes in the common case.
///
/// Each worker also owns a ShardArena, a monotonic scratch arena the
/// driver carves per-step buffers from (scored runs, merge outputs).
/// Arena blocks are cache-line aligned and worker-private, so per-shard
/// scratch never false-shares across workers and steady-state steps touch
/// no allocator at all.

namespace sjoin {

/// A monotonic bump allocator for per-step scratch.
///
/// Allocations live until Reset(); Reset() rewinds to empty without
/// releasing memory. Reserve() the worst case up front and the steady
/// state never grows — growth_events() counts the times it did anyway
/// (each new block), which the sharded engine's validation build asserts
/// stays flat across steps.
///
/// Not thread-safe: one arena belongs to one worker, and the driver only
/// carves from it between epochs (while that worker is quiescent).
class ShardArena {
 public:
  ShardArena() = default;
  ShardArena(const ShardArena&) = delete;
  ShardArena& operator=(const ShardArena&) = delete;

  /// Ensures at least `bytes` of total capacity (one growth event when it
  /// actually grows). Call at setup, before taking the growth baseline.
  void Reserve(std::size_t bytes);

  /// Rewinds every block to empty; all outstanding allocations die.
  void Reset();

  /// `count` default-uninitialized Ts, alive until Reset(). T must be
  /// trivially destructible — nothing is ever destroyed.
  template <typename T>
  T* AllocArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(AllocBytes(count * sizeof(T), alignof(T)));
  }

  /// Total bytes across blocks / bytes handed out since the last Reset.
  std::size_t capacity() const;
  std::size_t used() const;

  /// Number of block allocations ever (Reserve or overflow growth).
  std::int64_t growth_events() const { return growth_events_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> storage;
    std::byte* base = nullptr;  // storage aligned up to a cache line.
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* AllocBytes(std::size_t bytes, std::size_t align);
  Block& NewBlock(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // Index of the block being bumped.
  std::int64_t growth_events_ = 0;
};

/// A fixed team of persistent workers driven by an epoch ticket.
///
/// RunEpoch(fn, ctx) runs fn(ctx, w) once for every worker w in
/// [0, num_workers) and returns when all slices finished. Worker 0 is the
/// *calling* thread — a team of W spawns W - 1 threads, and a team of 1
/// spawns none (RunEpoch degenerates to a plain call, preserving the
/// serial code path exactly). Slices must only touch worker-local state
/// plus read-only shared state; the epoch release/acquire pair makes the
/// driver's pre-epoch writes visible to every slice and every slice's
/// writes visible to the driver after RunEpoch returns.
///
/// Exceptions thrown by a slice are latched per worker and rethrown by
/// RunEpoch — the lowest-indexed worker's error wins, deterministically —
/// after every slice finished; the team stays usable afterwards.
class ShardWorkers {
 public:
  /// What an epoch does, for telemetry only: per-kind counters let tests
  /// assert e.g. that the sharded engine's parallel merge actually ran
  /// without instrumenting the hot loop. The kind never changes
  /// scheduling — every epoch runs the same way.
  enum class EpochKind { kGeneric = 0, kStep, kMerge };
  static constexpr int kNumEpochKinds = 3;

  struct Options {
    /// Team size, >= 1. 1 = inline (no threads spawned).
    int workers = 1;
  };

  explicit ShardWorkers(Options options);
  ~ShardWorkers();

  ShardWorkers(const ShardWorkers&) = delete;
  ShardWorkers& operator=(const ShardWorkers&) = delete;

  using EpochFn = void (*)(void* ctx, int worker);

  /// Runs one epoch; see the class comment. Not reentrant: one driver
  /// thread, no overlapping calls. `kind` only feeds the epochs() counters.
  void RunEpoch(EpochFn fn, void* ctx, EpochKind kind = EpochKind::kGeneric);

  /// Epochs run so far, per kind / total. Driver-thread reads only.
  std::int64_t epochs(EpochKind kind) const {
    return epoch_counts_[static_cast<int>(kind)];
  }
  std::int64_t total_epochs() const {
    std::int64_t total = 0;
    for (std::int64_t count : epoch_counts_) total += count;
    return total;
  }

  /// Batch hints: between BeginBatch and EndBatch workers expect the next
  /// epoch imminently and spin longer before parking; outside a batch
  /// they park almost immediately. Purely a latency/CPU trade — never
  /// affects results.
  void BeginBatch() { in_batch_.store(true, std::memory_order_relaxed); }
  void EndBatch() { in_batch_.store(false, std::memory_order_relaxed); }

  /// Worker w's scratch arena. The driver may use it only while w is
  /// quiescent (outside RunEpoch); slice w may use it during its slice.
  ShardArena& arena(int worker);

  int num_workers() const { return options_.workers; }

 private:
  /// Cache-line sized/aligned so one worker's completion counter never
  /// false-shares with another's (the driver spins on these).
  struct alignas(64) WorkerState {
    std::atomic<std::uint64_t> done_epoch{0};
    std::exception_ptr error;
    ShardArena arena;
    std::thread thread;  // Unset for worker 0 (the caller).
  };

  void WorkerLoop(int worker);

  Options options_;
  std::unique_ptr<WorkerState[]> states_;

  /// The ticket. fn_/ctx_ are plain: the driver writes them before the
  /// epoch release and never while any worker is active, so the
  /// release/acquire on epoch_ (and done_epoch_ on the way back) orders
  /// every access.
  std::atomic<std::uint64_t> epoch_{0};
  EpochFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::int64_t epoch_counts_[kNumEpochKinds] = {};

  std::atomic<bool> stopping_{false};
  std::atomic<bool> in_batch_{false};
  /// Workers parked on wake_ (Dekker-style handshake with RunEpoch's
  /// epoch bump; both sides are seq_cst so a parking worker either sees
  /// the new epoch or is seen by the driver and notified).
  std::atomic<int> parked_{0};
  std::mutex mutex_;
  std::condition_variable wake_;
};

}  // namespace sjoin

#endif  // SJOIN_COMMON_SHARD_WORKERS_H_
