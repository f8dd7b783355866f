#include "sjoin/common/shard_workers.h"

#include <algorithm>

#include "sjoin/common/check.h"

namespace sjoin {
namespace {

constexpr std::size_t kBlockAlign = 64;
constexpr std::size_t kMinBlockBytes = 4096;

/// Spin budgets. Inside a batch a worker expects the next epoch within
/// the driver's short serial epilogue, so it burns a brief relax spin and
/// a few scheduler yields before parking; outside a batch it parks almost
/// immediately. The yields matter on oversubscribed machines (more
/// workers than cores): a pure relax spin there would steal cycles from
/// the thread actually doing work.
constexpr int kHotRelaxSpins = 2048;
constexpr int kHotYieldSpins = 64;
constexpr int kIdleRelaxSpins = 64;
constexpr int kDriverRelaxSpins = 1024;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ShardArena::Block& ShardArena::NewBlock(std::size_t min_bytes) {
  Block block;
  block.size = std::max({min_bytes, capacity() * 2, kMinBlockBytes});
  block.storage = std::make_unique<std::byte[]>(block.size + kBlockAlign);
  auto raw = reinterpret_cast<std::uintptr_t>(block.storage.get());
  block.base = block.storage.get() +
               ((kBlockAlign - raw % kBlockAlign) % kBlockAlign);
  blocks_.push_back(std::move(block));
  ++growth_events_;
  return blocks_.back();
}

void* ShardArena::AllocBytes(std::size_t bytes, std::size_t align) {
  for (; current_ < blocks_.size(); ++current_) {
    Block& block = blocks_[current_];
    const std::size_t aligned = (block.used + align - 1) / align * align;
    if (aligned + bytes <= block.size) {
      block.used = aligned + bytes;
      return block.base + aligned;
    }
  }
  Block& block = NewBlock(bytes);
  current_ = blocks_.size() - 1;
  block.used = bytes;
  return block.base;
}

void ShardArena::Reserve(std::size_t bytes) {
  if (capacity() >= bytes) return;
  // One contiguous block sized for the whole shortfall, so the steady
  // state bumps within a single block.
  NewBlock(bytes - capacity());
}

void ShardArena::Reset() {
  for (Block& block : blocks_) block.used = 0;
  current_ = 0;
}

std::size_t ShardArena::capacity() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

std::size_t ShardArena::used() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.used;
  return total;
}

ShardWorkers::ShardWorkers(Options options) : options_(options) {
  SJOIN_CHECK_GE(options_.workers, 1);
  states_ = std::make_unique<WorkerState[]>(
      static_cast<std::size_t>(options_.workers));
  for (int w = 1; w < options_.workers; ++w) {
    states_[w].thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

ShardWorkers::~ShardWorkers() {
  if (options_.workers > 1) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_.store(true, std::memory_order_seq_cst);
    }
    wake_.notify_all();
    for (int w = 1; w < options_.workers; ++w) states_[w].thread.join();
  }
}

ShardArena& ShardWorkers::arena(int worker) {
  SJOIN_CHECK_GE(worker, 0);
  SJOIN_CHECK_LT(worker, options_.workers);
  return states_[worker].arena;
}

void ShardWorkers::RunEpoch(EpochFn fn, void* ctx, EpochKind kind) {
  SJOIN_CHECK(fn != nullptr);
  ++epoch_counts_[static_cast<int>(kind)];
  if (options_.workers == 1) {
    fn(ctx, 0);
    return;
  }
  fn_ = fn;
  ctx_ = ctx;
  const std::uint64_t target =
      epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    // The empty critical section orders the notify after any in-progress
    // park (a parking worker holds the mutex from its parked_ increment
    // until the wait releases it).
    { std::lock_guard<std::mutex> lock(mutex_); }
    wake_.notify_all();
  }

  // Worker 0 is this thread: do our slice while the team does theirs.
  std::exception_ptr caller_error;
  try {
    fn(ctx, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  for (int w = 1; w < options_.workers; ++w) {
    WorkerState& state = states_[w];
    int relax = kDriverRelaxSpins;
    while (state.done_epoch.load(std::memory_order_acquire) < target) {
      if (relax-- > 0) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  // Deterministic propagation: the lowest-indexed worker's error wins.
  std::exception_ptr first = caller_error;
  for (int w = 1; w < options_.workers; ++w) {
    WorkerState& state = states_[w];
    if (state.error != nullptr) {
      if (first == nullptr) first = state.error;
      state.error = nullptr;
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ShardWorkers::WorkerLoop(int worker) {
  WorkerState& state = states_[worker];
  std::uint64_t seen = 0;
  for (;;) {
    const bool hot = in_batch_.load(std::memory_order_relaxed);
    int relax = hot ? kHotRelaxSpins : kIdleRelaxSpins;
    int yields = hot ? kHotYieldSpins : 0;
    std::uint64_t target;
    for (;;) {
      target = epoch_.load(std::memory_order_acquire);
      if (target != seen) break;
      if (stopping_.load(std::memory_order_acquire)) return;
      if (relax-- > 0) {
        CpuRelax();
      } else if (yields-- > 0) {
        std::this_thread::yield();
      } else {
        std::unique_lock<std::mutex> lock(mutex_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        if (epoch_.load(std::memory_order_seq_cst) == seen &&
            !stopping_.load(std::memory_order_relaxed)) {
          wake_.wait(lock, [this, seen] {
            return epoch_.load(std::memory_order_relaxed) != seen ||
                   stopping_.load(std::memory_order_relaxed);
          });
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
        relax = kIdleRelaxSpins;  // Re-check and likely run immediately.
        yields = 0;
      }
    }
    seen = target;
    try {
      fn_(ctx_, worker);
    } catch (...) {
      state.error = std::current_exception();
    }
    state.done_epoch.store(seen, std::memory_order_release);
  }
}

}  // namespace sjoin
