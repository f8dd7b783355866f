// Determinism tests for the parallel benchmark harness: a roster run on
// 4 threads must produce bit-identical summaries to the serial run, and
// the perf_smoke binary must emit valid JSON.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "harness/configs.h"
#include "harness/runner.h"
#include "sjoin/common/json_writer.h"
#include "sjoin/common/thread_pool.h"

namespace sjoin::bench {
namespace {

RosterOptions SmallOptions() {
  RosterOptions options;
  options.cache = 8;
  options.len = 300;
  options.runs = 3;
  options.seed = 7;
  options.include_flow_expect = true;  // Covers the process-clone path.
  options.flow_expect_lookahead = 3;
  return options;
}

/// Exact equality on purpose: the harness promises bit-identical results
/// for every thread count, not merely statistically close ones.
void ExpectIdenticalRosters(const std::vector<AlgoResult>& serial,
                            const std::vector<AlgoResult>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].name);
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].summary.mean, parallel[i].summary.mean);
    EXPECT_EQ(serial[i].summary.stddev, parallel[i].summary.stddev);
    EXPECT_EQ(serial[i].summary.min, parallel[i].summary.min);
    EXPECT_EQ(serial[i].summary.max, parallel[i].summary.max);
  }
}

TEST(BenchHarnessTest, ParallelRosterMatchesSerialOnTower) {
  JoinWorkload workload = MakeTower();
  RosterOptions options = SmallOptions();
  options.threads = 1;
  auto serial = RunJoinRoster(workload, options);
  ASSERT_FALSE(serial.empty());
  options.threads = 4;
  auto parallel = RunJoinRoster(workload, options);
  ExpectIdenticalRosters(serial, parallel);
}

TEST(BenchHarnessTest, ParallelRosterMatchesSerialOnWalk) {
  // WALK exercises RandomWalkProcess, whose lazily memoized convolution
  // powers are the reason jobs clone their processes.
  JoinWorkload workload = MakeWalk();
  RosterOptions options = SmallOptions();
  options.include_flow_expect = false;  // FlowExpect on WALK is slow.
  options.threads = 1;
  auto serial = RunJoinRoster(workload, options);
  options.threads = 4;
  auto parallel = RunJoinRoster(workload, options);
  ExpectIdenticalRosters(serial, parallel);
}

TEST(BenchHarnessTest, EnqueuedRostersOnSharedPoolMatchSerial) {
  // The sweep pattern: several rosters in flight on one pool at once.
  JoinWorkload workload = MakeTower();
  RosterOptions options = SmallOptions();
  options.include_flow_expect = false;
  std::vector<std::size_t> caches = {4, 8, 16};

  std::vector<std::vector<AlgoResult>> serial;
  for (std::size_t cache : caches) {
    options.cache = cache;
    options.threads = 1;
    serial.push_back(RunJoinRoster(workload, options));
  }

  ThreadPool pool(4);
  std::vector<PendingRoster> pending;
  for (std::size_t cache : caches) {
    options.cache = cache;
    pending.push_back(EnqueueJoinRoster(workload, options, pool));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    SCOPED_TRACE("cache=" + std::to_string(caches[i]));
    ExpectIdenticalRosters(serial[i], pending[i].Await());
  }
}

#ifdef PERF_SMOKE_BIN
TEST(BenchHarnessTest, PerfSmokeEmitsValidJson) {
  const std::string out = "perf_smoke_test_out.json";
  std::remove(out.c_str());
  std::string cmd = std::string("\"") + PERF_SMOKE_BIN +
                    "\" --len=200 --runs=1 --out=" + out + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  std::ifstream in(out);
  ASSERT_TRUE(in.good()) << "perf_smoke did not write " << out;
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_TRUE(JsonParses(text.str()));
  EXPECT_NE(text.str().find("\"schema\":\"sjoin-perf-v7\""),
            std::string::npos);
  EXPECT_NE(text.str().find("\"peak_candidates\""), std::string::npos);
  EXPECT_NE(text.str().find("\"shards\":8"), std::string::npos);
  EXPECT_NE(text.str().find("\"workload\":\"ZIPF12\""), std::string::npos);
  EXPECT_NE(text.str().find("\"planner\":1"), std::string::npos);
  EXPECT_NE(text.str().find("\"probe_cache_hit_rate\""), std::string::npos);
  // Engine rows run their shards inline: every row records threads=1
  // (only serve_load's rows sweep threads, counting scheduler workers).
  const std::string threads_key = "\"threads\":";
  std::size_t rows_seen = 0;
  for (std::size_t at = text.str().find(threads_key); at != std::string::npos;
       at = text.str().find(threads_key, at + 1)) {
    ++rows_seen;
    EXPECT_EQ(text.str().substr(at + threads_key.size(), 2), "1,");
  }
  EXPECT_GT(rows_seen, 0u);
  std::remove(out.c_str());
}
#endif  // PERF_SMOKE_BIN

}  // namespace
}  // namespace sjoin::bench
