// The step commit's candidate position table and retention resolver
// (engine/retention.h): lookups across generations, the generation-stamp
// wrap-around, and the kept flags a commit walks.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sjoin/engine/retention.h"

namespace sjoin {
namespace {

TEST(CandidatePositionTableTest, FindsInsertedIdsAndRejectsRepeats) {
  CandidatePositionTable<> table;
  table.Reserve(300);
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(table.Insert(1000 + 2 * i, i));
  }
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(table.Find(1000 + 2 * i), i);
    EXPECT_EQ(table.Find(1001 + 2 * i), -1);
  }
  EXPECT_FALSE(table.Insert(1000, 7));
  EXPECT_EQ(table.Find(1000), 0);
}

TEST(CandidatePositionTableTest, ClearForgetsEveryGeneration) {
  CandidatePositionTable<> table;
  table.Reserve(4);
  table.Insert(10, 0);
  table.Clear();
  EXPECT_EQ(table.Find(10), -1);
  EXPECT_TRUE(table.Insert(10, 3));
  EXPECT_EQ(table.Find(10), 3);
}

TEST(CandidatePositionTableTest, StampWrapAroundNeverResurrectsOldEntries) {
  // An 8-bit stamp wraps every 255 generations. An entry written once and
  // never overwritten would come back to life when the stamp returns to
  // its value, unless the wrap resets the slots.
  CandidatePositionTable<std::uint8_t> table;
  table.Reserve(4);
  ASSERT_TRUE(table.Insert(42, 1));
  for (int generation = 1; generation <= 3 * 256; ++generation) {
    table.Clear();
    ASSERT_EQ(table.Find(42), -1) << generation;
  }
  EXPECT_TRUE(table.Insert(7, 5));
  EXPECT_EQ(table.Find(7), 5);
  EXPECT_EQ(table.Find(42), -1);
}

TEST(CandidatePositionTableTest, LiveKeysSurviveTheStampWrapAround) {
  CandidatePositionTable<std::uint8_t> table;
  table.Reserve(4);
  for (int generation = 1; generation <= 3 * 256; ++generation) {
    table.Clear();
    const auto shift = static_cast<TupleId>(generation % 3);
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(table.Insert(shift + 10 * i, i)) << generation;
    }
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_EQ(table.Find(shift + 10 * i), i) << generation;
    }
    ASSERT_EQ(table.Find(shift + 5), -1) << generation;
  }
}

TEST(RetentionResolverTest, FlagsKeptPositionsAndCopiesInRetainedOrder) {
  RetentionResolver resolver;
  resolver.Reserve(5);
  const std::vector<StreamTuple> cached = {
      {10, 1, 7, 5}, {12, 0, 8, 6}, {14, 1, 9, 7}};
  const std::vector<StreamTuple> arrivals = {{16, 0, 1, 8}, {17, 1, 2, 8}};
  const std::vector<TupleId> retained = {17, 10, 14};
  std::vector<StreamTuple> out;
  resolver.Resolve(cached, arrivals, retained,
                   {.not_candidate = "not a candidate", .twice = "twice"},
                   &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 17u);
  EXPECT_EQ(out[1].id, 10u);
  EXPECT_EQ(out[2].id, 14u);
  const std::vector<bool> kept = {true, false, true, false, true};
  for (std::size_t pos = 0; pos < kept.size(); ++pos) {
    EXPECT_EQ(resolver.kept(pos), kept[pos]) << pos;
  }
  EXPECT_EQ(resolver.PositionOf(16), 3);
  EXPECT_EQ(resolver.PositionOf(99), -1);
  EXPECT_TRUE(CommitMatchesRetained(cached, arrivals, retained, out));
}

TEST(RetentionResolverDeathTest, RejectsUnknownAndRepeatedIds) {
  RetentionResolver resolver;
  resolver.Reserve(3);
  const std::vector<StreamTuple> cached = {{4, 0, 1, 2}};
  const std::vector<StreamTuple> arrivals = {{6, 0, 1, 3}, {7, 1, 1, 3}};
  std::vector<StreamTuple> out;
  const RetentionMessages messages{.not_candidate = "unknown id",
                                   .twice = "repeated id"};
  EXPECT_DEATH(resolver.Resolve(cached, arrivals, {4, 5}, messages, &out),
               "unknown id");
  EXPECT_DEATH(resolver.Resolve(cached, arrivals, {6, 4, 6}, messages, &out),
               "repeated id");
}

}  // namespace
}  // namespace sjoin
