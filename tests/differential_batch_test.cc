// Differential suite for the batched SoA scoring kernels: every
// batch-scorable policy family (HEEB kDirect / kTimeIncremental /
// kWalkTable, PROB, LIFE, caching HEEB) runs its kernel serial and
// sharded, comparing full per-step traces (or all four cache counters)
// bit for bit against a serial baseline whose attached score observer
// forces the scalar per-tuple path. SJOIN_DIFF_SHARDS sets the shard count
// of the sharded kernel run.

#include <gtest/gtest.h>

#include "sjoin/testing/differential.h"

namespace sjoin {
namespace testing {
namespace {

TEST(DifferentialBatchTest, BatchScoringMatchesScalarBitForBit) {
  const DifferentialSuite* suite = FindDifferentialSuite("batch_scoring");
  ASSERT_NE(suite, nullptr);
  DifferentialReport report = RunDifferentialSuite(
      *suite, kDifferentialBaseSeed, TrialCountFromEnv(suite->default_trials));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace testing
}  // namespace sjoin
