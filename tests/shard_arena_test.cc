#include "sjoin/common/shard_arena.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "gtest/gtest.h"

namespace sjoin {
namespace {

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

}  // namespace
}  // namespace sjoin
