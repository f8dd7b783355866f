#include "sjoin/stochastic/prediction_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/common/validate.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/random_walk_process.h"

namespace sjoin {
namespace {

// Forwards to a process and counts every Predict/PredictInto call.
class CountingProcess final : public StochasticProcess {
 public:
  explicit CountingProcess(const StochasticProcess* inner) : inner_(inner) {}
  DiscreteDistribution Predict(const StreamHistory& history,
                               Time t) const override {
    ++calls;
    return inner_->Predict(history, t);
  }
  void PredictInto(const StreamHistory& history, Time t,
                   DiscreteDistribution* out) const override {
    ++calls;
    inner_->PredictInto(history, t, out);
  }
  bool IsIndependent() const override { return inner_->IsIndependent(); }
  std::unique_ptr<StochasticProcess> Clone() const override {
    return inner_->Clone();
  }

  mutable std::int64_t calls = 0;

 private:
  const StochasticProcess* inner_;
};

// Claims independence but centers its pmf on the last observed value.
class LyingProcess final : public StochasticProcess {
 public:
  DiscreteDistribution Predict(const StreamHistory& history,
                               Time t) const override {
    (void)t;
    return DiscreteDistribution::PointMass(history.empty() ? 0
                                                           : history.back());
  }
  bool IsIndependent() const override { return true; }
  std::unique_ptr<StochasticProcess> Clone() const override {
    return std::make_unique<LyingProcess>();
  }
};

void ExpectSamePmf(const DiscreteDistribution& got,
                   const DiscreteDistribution& want, Time t) {
  ASSERT_EQ(got.IsEmpty(), want.IsEmpty()) << "time " << t;
  if (want.IsEmpty()) return;
  EXPECT_EQ(got.MinValue(), want.MinValue()) << "time " << t;
  EXPECT_EQ(got.masses(), want.masses()) << "time " << t;  // Bit for bit.
}

// Checks every entry of the ring's window for `stream` against a fresh
// Predict from the current history, and the dt-ordered views against the
// entries they view.
void ExpectWindowFresh(const PredictionRing& ring, int stream,
                       const StochasticProcess& process,
                       const StreamHistory& history) {
  const Time now = ring.now();
  const Time first = process.IsIndependent() ? now : now + 1;
  EXPECT_EQ(ring.Holds(stream, now), process.IsIndependent());
  EXPECT_FALSE(ring.Holds(stream, now + ring.horizon() + 1));
  for (Time t = first; t <= now + ring.horizon(); ++t) {
    ASSERT_TRUE(ring.Holds(stream, t)) << "time " << t;
    ExpectSamePmf(ring.At(stream, t), process.Predict(history, t), t);
  }
  const PmfView* ahead = ring.Ahead(stream);
  for (Time dt = 1; dt <= ring.horizon(); ++dt) {
    const DiscreteDistribution& pmf = ring.At(stream, now + dt);
    const PmfView& view = ahead[dt - 1];
    EXPECT_EQ(view.size, static_cast<Value>(pmf.SupportSize()));
    EXPECT_EQ(view.masses, pmf.masses().data());
    if (pmf.IsEmpty()) continue;
    for (Value v = pmf.MinValue() - 2; v <= pmf.MaxValue() + 2; ++v) {
      EXPECT_EQ(view.Prob(v), pmf.Prob(v)) << "dt " << dt << " v " << v;
    }
  }
}

// Appends random values until the history covers times 0..now.
void GrowTo(StreamHistory* history, Time now, Rng& rng) {
  while (history->size() <= now) {
    history->Append(static_cast<Value>(rng.UniformInt(-5, 5)));
  }
}

LinearTrendProcess Trend() {
  return LinearTrendProcess(
      1.0, -1.0,
      DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.5, -6, 6));
}

TEST(PredictionRingTest, IndependentStreamPredictsOnlyNewTimes) {
  const LinearTrendProcess trend = Trend();
  for (Time horizon : {Time{1}, Time{2}, Time{7}}) {
    CountingProcess counting(&trend);
    PredictionRing ring({&counting}, horizon);
    StreamHistory history;
    Rng rng(3);
    const std::int64_t check_calls = kValidationEnabled ? 2 : 0;
    // (gap, reset before the advance); gap 0 on the first call means t=0.
    struct Move {
      Time gap;
      bool reset;
    };
    const std::vector<Move> moves = {
        {0, false},           {1, false},           {2, false},
        {horizon - 1, false}, {horizon, false},     {horizon + 5, false},
        {1, false},           {1, true},            {1, false},
        {horizon, false},     {horizon + 1, false}, {1, false}};
    Time now = 0;
    bool fresh = true;
    for (const Move& move : moves) {
      now += move.gap;
      if (move.reset) {
        ring.Reset();
        EXPECT_EQ(ring.now(), -1);
        fresh = true;
      }
      GrowTo(&history, now, rng);
      const StreamHistory* histories[1] = {&history};
      const std::int64_t before = counting.calls;
      ring.Advance(now, histories);
      const std::int64_t calls = counting.calls - before;
      if (fresh || move.gap > horizon) {
        EXPECT_EQ(calls, horizon + 1) << "horizon " << horizon << " now "
                                      << now;
      } else if (move.gap == 0) {
        EXPECT_EQ(calls, 0) << "horizon " << horizon << " now " << now;
      } else {
        EXPECT_EQ(calls, move.gap + check_calls)
            << "horizon " << horizon << " now " << now;
      }
      fresh = false;
      EXPECT_EQ(ring.now(), now);
      ExpectWindowFresh(ring, 0, trend, history);
    }
    // Advancing to the current time again predicts nothing.
    const std::int64_t before = counting.calls;
    const StreamHistory* histories[1] = {&history};
    ring.Advance(now, histories);
    EXPECT_EQ(counting.calls, before);
  }
}

TEST(PredictionRingTest, HistoryDependentStreamRebuildsEveryStep) {
  RandomWalkProcess walk(DiscreteDistribution::DiscretizedNormal(0.0, 1.0),
                         0);
  const LinearTrendProcess trend = Trend();
  CountingProcess counting_walk(&walk);
  CountingProcess counting_trend(&trend);
  const Time horizon = 6;
  // One ring, two streams of different kinds: each keeps its own contract.
  PredictionRing ring({&counting_walk, &counting_trend}, horizon);
  std::vector<StreamHistory> histories(2);
  Rng rng(5);
  const std::int64_t check_calls = kValidationEnabled ? 2 : 0;
  Time now = 0;
  for (Time gap : {Time{0}, Time{1}, Time{1}, Time{3}, Time{1},
                   horizon + 2, Time{1}}) {
    now += gap;
    for (StreamHistory& history : histories) GrowTo(&history, now, rng);
    const std::int64_t walk_before = counting_walk.calls;
    const std::int64_t trend_before = counting_trend.calls;
    ring.Advance(now, histories);
    EXPECT_EQ(counting_walk.calls - walk_before, horizon) << "now " << now;
    const std::int64_t trend_calls = counting_trend.calls - trend_before;
    if (gap == 0 || gap > horizon) {
      EXPECT_EQ(trend_calls, horizon + 1) << "now " << now;
    } else {
      EXPECT_EQ(trend_calls, gap + check_calls) << "now " << now;
    }
    ExpectWindowFresh(ring, 0, walk, histories[0]);
    ExpectWindowFresh(ring, 1, trend, histories[1]);
  }
}

TEST(PredictionRingTest, ValidateBuildCatchesAProcessThatReadsItsHistory) {
  if constexpr (!kValidationEnabled) {
    GTEST_SKIP() << "the guard runs in SJOIN_VALIDATE builds only";
  }
  LyingProcess lying;
  EXPECT_DEATH(
      {
        PredictionRing ring({&lying}, 4);
        StreamHistory history;
        for (Time now = 0; now < 3; ++now) {
          history.Append(static_cast<Value>(10 * now));
          const StreamHistory* histories[1] = {&history};
          ring.Advance(now, histories);
        }
      },
      "IsIndependent");
}

}  // namespace
}  // namespace sjoin
