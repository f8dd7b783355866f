// Differential suite for the sharded engine: ShardedStreamEngine at shard
// counts {1, 2, 4, 8} against the serial StreamEngine on the same
// realization and policy (independent and skewed workloads), comparing per-step retained/cache/produced
// traces and run telemetry bit for bit. (The SJOIN_DIFF_SHARDS env hook
// additionally reruns the other suites' optimized sides sharded; this
// suite is the dedicated, always-on statement of the contract.)

#include <gtest/gtest.h>

#include "sjoin/testing/differential.h"

namespace sjoin {
namespace testing {
namespace {

TEST(DifferentialShardedTest, ShardedEngineMatchesSerialBitForBit) {
  const DifferentialSuite* suite = FindDifferentialSuite("sharded_engine");
  ASSERT_NE(suite, nullptr);
  DifferentialReport report = RunDifferentialSuite(
      *suite, kDifferentialBaseSeed, TrialCountFromEnv(suite->default_trials));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace testing
}  // namespace sjoin
