#include "sjoin/common/shard_workers.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace sjoin {
namespace {

// ---------------------------------------------------------------------------
// ShardArena

TEST(ShardArenaTest, AllocationsAreDisjointAndAligned) {
  ShardArena arena;
  double* a = arena.AllocArray<double>(16);
  std::int32_t* b = arena.AllocArray<std::int32_t>(7);
  double* c = arena.AllocArray<double>(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::int32_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % alignof(double), 0u);

  // Write through every allocation; no overlap means all values survive.
  for (int i = 0; i < 16; ++i) a[i] = i + 0.5;
  for (int i = 0; i < 7; ++i) b[i] = -i;
  for (int i = 0; i < 3; ++i) c[i] = 100.0 + i;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], i + 0.5);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(b[i], -i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(c[i], 100.0 + i);
  EXPECT_GE(arena.used(), 16 * sizeof(double) + 7 * sizeof(std::int32_t) +
                              3 * sizeof(double));
}

TEST(ShardArenaTest, ResetRewindsWithoutReleasing) {
  ShardArena arena;
  arena.AllocArray<std::byte>(1000);
  std::size_t capacity = arena.capacity();
  std::int64_t growth = arena.growth_events();
  EXPECT_GT(capacity, 0u);
  EXPECT_GT(growth, 0);

  arena.Reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), capacity);

  // Same-size reallocation after Reset must reuse the existing block:
  // no new capacity, no growth event.
  arena.AllocArray<std::byte>(1000);
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.growth_events(), growth);
}

TEST(ShardArenaTest, ReservePreventsSteadyStateGrowth) {
  ShardArena arena;
  arena.Reserve(64 * 1024);
  std::int64_t growth = arena.growth_events();
  for (int step = 0; step < 50; ++step) {
    arena.Reset();
    arena.AllocArray<double>(1024);
    arena.AllocArray<std::int64_t>(2048);
    arena.AllocArray<std::byte>(8192);
  }
  EXPECT_EQ(arena.growth_events(), growth);
}

TEST(ShardArenaTest, OverflowGrowsAndCountsGrowthEvents) {
  ShardArena arena;
  arena.Reserve(4096);
  std::int64_t growth = arena.growth_events();
  // Far beyond the reserve: must still succeed, with a recorded growth.
  std::byte* big = arena.AllocArray<std::byte>(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 1 << 20);
  EXPECT_GT(arena.growth_events(), growth);
  EXPECT_GE(arena.capacity(), (1u << 20));
}

// ---------------------------------------------------------------------------
// ShardWorkers

struct EpochCounters {
  std::vector<std::atomic<int>> per_worker;
  explicit EpochCounters(int n) : per_worker(static_cast<std::size_t>(n)) {}
  static void Bump(void* raw, int worker) {
    auto* self = static_cast<EpochCounters*>(raw);
    self->per_worker[static_cast<std::size_t>(worker)].fetch_add(
        1, std::memory_order_relaxed);
  }
};

TEST(ShardWorkersTest, EverySliceRunsExactlyOncePerEpoch) {
  for (int workers : {1, 2, 3, 4}) {
    ShardWorkers team({.workers = workers});
    EXPECT_EQ(team.num_workers(), workers);
    EpochCounters counters(workers);
    constexpr int kEpochs = 500;
    for (int e = 0; e < kEpochs; ++e) {
      team.RunEpoch(&EpochCounters::Bump, &counters);
    }
    for (int w = 0; w < workers; ++w) {
      EXPECT_EQ(counters.per_worker[static_cast<std::size_t>(w)].load(),
                kEpochs)
          << "workers=" << workers << " worker=" << w;
    }
  }
}

struct ThreadIdRecorder {
  std::vector<std::thread::id> ids;
  static void Record(void* raw, int worker) {
    static_cast<ThreadIdRecorder*>(raw)
        ->ids[static_cast<std::size_t>(worker)] = std::this_thread::get_id();
  }
};

TEST(ShardWorkersTest, WorkerZeroIsTheCallingThread) {
  ShardWorkers team({.workers = 3});
  ThreadIdRecorder recorder;
  recorder.ids.resize(3);
  team.RunEpoch(&ThreadIdRecorder::Record, &recorder);
  EXPECT_EQ(recorder.ids[0], std::this_thread::get_id());
  // Spawned workers run on distinct threads that are not the caller.
  std::set<std::thread::id> distinct(recorder.ids.begin(),
                                     recorder.ids.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(ShardWorkersTest, SingleWorkerTeamIsInline) {
  ShardWorkers team({.workers = 1});
  ThreadIdRecorder recorder;
  recorder.ids.resize(1);
  team.RunEpoch(&ThreadIdRecorder::Record, &recorder);
  EXPECT_EQ(recorder.ids[0], std::this_thread::get_id());
}

TEST(ShardWorkersTest, EpochWritesAreVisibleAcrossSlicesAndDriver) {
  // The driver writes inputs before the epoch; every slice squares its
  // cell; the driver must read the results without any extra sync.
  struct Shared {
    int values[8];
    static void Square(void* raw, int worker) {
      auto* self = static_cast<Shared*>(raw);
      self->values[worker] *= self->values[worker];
    }
  };
  ShardWorkers team({.workers = 8});
  Shared shared;
  for (int round = 1; round <= 100; ++round) {
    for (int w = 0; w < 8; ++w) shared.values[w] = round + w;
    team.RunEpoch(&Shared::Square, &shared);
    for (int w = 0; w < 8; ++w) {
      ASSERT_EQ(shared.values[w], (round + w) * (round + w));
    }
  }
}

struct Thrower {
  std::atomic<int> ran{0};
  int throw_below = 0;  // Workers with index < throw_below throw.
  static void Run(void* raw, int worker) {
    auto* self = static_cast<Thrower*>(raw);
    self->ran.fetch_add(1, std::memory_order_relaxed);
    if (worker < self->throw_below) {
      throw std::runtime_error("worker " + std::to_string(worker));
    }
  }
};

TEST(ShardWorkersTest, RethrowsLowestWorkersErrorAndStaysUsable) {
  ShardWorkers team({.workers = 4});
  Thrower thrower;
  thrower.throw_below = 3;  // Workers 0, 1, 2 all throw.
  try {
    team.RunEpoch(&Thrower::Run, &thrower);
    FAIL() << "expected RunEpoch to rethrow";
  } catch (const std::runtime_error& error) {
    // Deterministic: the lowest-indexed worker's exception wins.
    EXPECT_STREQ(error.what(), "worker 0");
  }
  // Every slice still ran to completion despite the throws.
  EXPECT_EQ(thrower.ran.load(), 4);

  // The team survives: later epochs run cleanly on all workers.
  EpochCounters counters(4);
  team.RunEpoch(&EpochCounters::Bump, &counters);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(counters.per_worker[static_cast<std::size_t>(w)].load(), 1);
  }
}

TEST(ShardWorkersTest, InlineTeamPropagatesExceptions) {
  ShardWorkers team({.workers = 1});
  Thrower thrower;
  thrower.throw_below = 1;
  EXPECT_THROW(team.RunEpoch(&Thrower::Run, &thrower), std::runtime_error);
  EpochCounters counters(1);
  team.RunEpoch(&EpochCounters::Bump, &counters);
  EXPECT_EQ(counters.per_worker[0].load(), 1);
}

TEST(ShardWorkersTest, ArenasAreWorkerPrivateAndResettable) {
  ShardWorkers team({.workers = 3});
  struct Fill {
    ShardWorkers* team;
    static void Run(void* raw, int worker) {
      auto* self = static_cast<Fill*>(raw);
      // Each slice carves from its own arena and stamps its index.
      int* cells = self->team->arena(worker).AllocArray<int>(256);
      for (int i = 0; i < 256; ++i) cells[i] = worker;
    }
  };
  Fill fill{&team};
  team.RunEpoch(&Fill::Run, &fill);
  for (int w = 0; w < 3; ++w) {
    EXPECT_GE(team.arena(w).used(), 256 * sizeof(int));
    team.arena(w).Reset();
    EXPECT_EQ(team.arena(w).used(), 0u);
  }
}

TEST(ShardWorkersTest, BatchHintsDoNotAffectResults) {
  ShardWorkers team({.workers = 4});
  EpochCounters counters(4);
  team.BeginBatch();
  for (int e = 0; e < 200; ++e) {
    team.RunEpoch(&EpochCounters::Bump, &counters);
  }
  team.EndBatch();
  // And epochs after the batch ended still work (workers park again).
  team.RunEpoch(&EpochCounters::Bump, &counters);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(counters.per_worker[static_cast<std::size_t>(w)].load(), 201);
  }
}

TEST(ShardWorkersTest, EpochKindCountersTrackEachKindSeparately) {
  ShardWorkers team({.workers = 2});
  EXPECT_EQ(team.total_epochs(), 0);
  EpochCounters counters(2);
  team.RunEpoch(&EpochCounters::Bump, &counters);  // kGeneric default.
  for (int e = 0; e < 3; ++e) {
    team.RunEpoch(&EpochCounters::Bump, &counters,
                  ShardWorkers::EpochKind::kStep);
  }
  for (int e = 0; e < 2; ++e) {
    team.RunEpoch(&EpochCounters::Bump, &counters,
                  ShardWorkers::EpochKind::kMerge);
  }

  EXPECT_EQ(team.epochs(ShardWorkers::EpochKind::kGeneric), 1);
  EXPECT_EQ(team.epochs(ShardWorkers::EpochKind::kStep), 3);
  EXPECT_EQ(team.epochs(ShardWorkers::EpochKind::kMerge), 2);
  EXPECT_EQ(team.total_epochs(), 6);
  // Counters are bookkeeping only — every slice still ran once per epoch.
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(counters.per_worker[static_cast<std::size_t>(w)].load(), 6);
  }
}

TEST(ShardWorkersTest, TeamsConstructAndJoinCleanly) {
  // Lifecycle churn: construct, run one epoch, destruct, repeatedly. The
  // destructor must wake parked workers and join them every time.
  for (int round = 0; round < 20; ++round) {
    ShardWorkers team({.workers = 1 + round % 4});
    EpochCounters counters(team.num_workers());
    team.RunEpoch(&EpochCounters::Bump, &counters);
  }
  // A team that never ran an epoch must also tear down cleanly.
  { ShardWorkers idle({.workers = 3}); }
}

}  // namespace
}  // namespace sjoin
