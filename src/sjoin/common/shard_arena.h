#ifndef SJOIN_COMMON_SHARD_ARENA_H_
#define SJOIN_COMMON_SHARD_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

/// \file
/// A monotonic scratch arena for per-step buffers.
///
/// The sharded engine carves each step's scored runs, dropped lists, SoA
/// scoring lanes and merge outputs from one ShardArena and rewinds it at
/// the start of the next scored step. Reserving the worst case once per
/// run keeps the steady-state step off the heap allocator entirely.

namespace sjoin {

/// A monotonic bump allocator for per-step scratch.
///
/// Allocations live until Reset(); Reset() rewinds to empty without
/// releasing memory. Reserve() the worst case up front and the steady
/// state never grows — growth_events() counts the times it did anyway
/// (each new block), which the sharded engine's validation build asserts
/// stays flat across steps.
///
/// Not thread-safe: one arena belongs to one engine.
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

}  // namespace sjoin

#endif  // SJOIN_COMMON_SHARD_ARENA_H_
