// join-heeb-tower: HEEB in its TOWER configuration through the
// JoinSimulator façade, a closed loop on one thread (README.md).

#include <cstdio>
#include <memory>
#include <vector>

#include "perfbench.h"
#include "report.h"
#include "sjoin/core/heeb_join_policy.h"
#include "sjoin/core/lifetime_fn.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/stochastic/linear_trend_process.h"
#include "sjoin/stochastic/stream_sampler.h"
#include "sjoin/testing/naive_simulator.h"
#include "trace.h"
#include "workload_util.h"

namespace perfbench {
namespace {

constexpr std::size_t kCapacity = 200;
constexpr sjoin::Time kWarmup = 4000;
constexpr sjoin::Time kLength = 8000;
constexpr int kRealizations = 8;
/// Steps of realization 0 replayed on the naive oracle; crosses the
/// warm-up so counted results are compared too.
constexpr sjoin::Time kGatePrefix = 4500;
constexpr std::int64_t kPredictSampleEvery = 64;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

/// The paper's TOWER (Section 6.1): linear trends of slope 1, R one step
/// behind S, bounded discretized-normal noise with sd 1 on [-10, 10] for R
/// and sd 2 on [-15, 15] for S; HEEB uses L_exp with the average-lifetime
/// alpha for (10 + 15) / 2 and a 150-step horizon.
struct Tower {
  sjoin::LinearTrendProcess r{
      1.0, -1.0,
      sjoin::DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 1.0, -10,
                                                              10)};
  sjoin::LinearTrendProcess s{
      1.0, 0.0,
      sjoin::DiscreteDistribution::TruncatedDiscretizedNormal(0.0, 2.0, -15,
                                                              15)};
};

sjoin::HeebJoinPolicy::Options TowerHeebOptions() {
  sjoin::HeebJoinPolicy::Options options;
  options.mode = sjoin::HeebJoinPolicy::Mode::kTimeIncremental;
  options.alpha = sjoin::ExpLifetime::AlphaForAverageLifetime(12.5);
  options.horizon = 150;
  return options;
}

struct JoinSetup {
  std::unique_ptr<Tower> tower;
  std::vector<sjoin::StreamPair> realizations;
  std::unique_ptr<sjoin::HeebJoinPolicy> policy;
  double policy_s = 0.0;
};

JoinSetup BuildSetup(std::uint64_t seed) {
  JoinSetup setup;
  setup.tower = std::make_unique<Tower>();
  sjoin::Rng rng(DeriveSeed(seed, 1));
  for (int i = 0; i < kRealizations; ++i) {
    setup.realizations.push_back(sjoin::SampleStreamPair(
        setup.tower->r, setup.tower->s, kLength, rng));
  }
  const std::int64_t start = NowNs();
  setup.policy = std::make_unique<sjoin::HeebJoinPolicy>(
      &setup.tower->r, &setup.tower->s, TowerHeebOptions());
  setup.policy_s = static_cast<double>(NowNs() - start) * 1e-9;
  return setup;
}

bool SameRun(const sjoin::JoinRunResult& a, const sjoin::JoinRunResult& b) {
  return a.total_results == b.total_results &&
         a.counted_results == b.counted_results &&
         a.telemetry.peak_candidates == b.telemetry.peak_candidates;
}

}  // namespace

BenchResult RunJoinHeebTower(const BenchArgs& args) {
  BenchResult result;
  JoinSetup setup;
  std::vector<double> policy_setup_s;
  result.metrics["setup_s"] = MedianSetupSeconds(kSetupRepeats, [&] {
    setup = BuildSetup(args.seed);
    policy_setup_s.push_back(setup.policy_s);
  });
  const sjoin::JoinSimulator sim(
      {.capacity = kCapacity, .warmup = kWarmup});

  // Correctness gate: the façade must match the naive oracle bit for bit
  // on a prefix that crosses the warm-up.
  {
    const sjoin::StreamPair& pair = setup.realizations[0];
    std::vector<sjoin::Value> r(pair.r.begin(), pair.r.begin() + kGatePrefix);
    std::vector<sjoin::Value> s(pair.s.begin(), pair.s.begin() + kGatePrefix);
    const sjoin::JoinRunResult fast = sim.Run(r, s, *setup.policy);
    const sjoin::JoinRunResult naive =
        sjoin::testing::NaiveJoinSimulator(sim.options())
            .Run(r, s, *setup.policy);
    if (!SameRun(fast, naive)) {
      std::fprintf(stderr,
                   "join-heeb-tower: on the gate prefix the facade gave "
                   "%lld/%lld results (counted/total), peak %lld candidates; "
                   "the naive oracle %lld/%lld, peak %lld\n",
                   static_cast<long long>(fast.counted_results),
                   static_cast<long long>(fast.total_results),
                   static_cast<long long>(fast.telemetry.peak_candidates),
                   static_cast<long long>(naive.counted_results),
                   static_cast<long long>(naive.total_results),
                   static_cast<long long>(naive.telemetry.peak_candidates));
      result.correct = false;
      result.failed += kGatePrefix;
    }
    result.attempted += kGatePrefix;
  }

  // Every pass over a realization must repeat its first pass exactly.
  std::vector<sjoin::JoinRunResult> reference(kRealizations);
  std::vector<bool> have_reference(kRealizations, false);
  auto check = [&](int index, const sjoin::JoinRunResult& run,
                   const char* what) {
    result.attempted += kLength;
    if (!have_reference[index]) {
      reference[index] = run;
      have_reference[index] = true;
    } else if (!SameRun(run, reference[index])) {
      std::fprintf(stderr, "join-heeb-tower: %s pass on realization %d "
                   "counted %lld, first pass %lld\n",
                   what, index, static_cast<long long>(run.counted_results),
                   static_cast<long long>(reference[index].counted_results));
      result.correct = false;
      result.failed += kLength;
    }
  };

  StepClock clock(kLength);
  TracedReplacementPolicy clocked(setup.policy.get(), &clock, nullptr);
  std::vector<PassStats> passes;
  auto untraced_pass = [&](int index) {
    const sjoin::StreamPair& pair = setup.realizations[index];
    sjoin::JoinRunResult run;
    const PassStats stats = TimePass(
        clock, kWarmup, [&] { run = sim.Run(pair.r, pair.s, clocked); });
    check(index, run, "untraced");
    passes.push_back(stats);
    return stats.seconds;
  };

  if (!args.trace) {
    RepeatFor(args.seconds, kRealizations,
              [&](int i) { untraced_pass(i % kRealizations); });
    ReportPasses(passes, static_cast<double>(kLength), &result);
    double counted = 0.0;
    for (const sjoin::JoinRunResult& run : reference) {
      counted += static_cast<double>(run.counted_results);
    }
    result.metrics["counted_results"] = counted;
    return result;
  }

  // Traced run: pairs of an untraced and a traced pass over the same
  // realization; the traced policy predicts through counting decorators.
  PolicySpans spans;
  PredictCounters predicts;
  TracedProcess traced_r(&setup.tower->r, &predicts, kPredictSampleEvery);
  TracedProcess traced_s(&setup.tower->s, &predicts, kPredictSampleEvery);
  sjoin::HeebJoinPolicy traced_heeb(&traced_r, &traced_s, TowerHeebOptions());
  TracedReplacementPolicy traced(&traced_heeb, nullptr, &spans);
  std::vector<double> untraced_s;
  std::vector<double> traced_s_per_pass;
  std::int64_t facade_ns = 0;
  std::int64_t traced_steps = 0;
  RepeatFor(args.seconds, kRealizations, [&](int i) {
    const int index = i % kRealizations;
    untraced_s.push_back(untraced_pass(index));
    const sjoin::StreamPair& pair = setup.realizations[index];
    const std::int64_t start = NowNs();
    const sjoin::JoinRunResult run = sim.Run(pair.r, pair.s, traced);
    const std::int64_t ns = NowNs() - start;
    facade_ns += ns;
    traced_steps += kLength;
    traced_s_per_pass.push_back(static_cast<double>(ns) * 1e-9);
    check(index, run, "traced");
  });

  const double steps = static_cast<double>(traced_steps);
  const double candidates_per_step =
      static_cast<double>(spans.candidates) / static_cast<double>(spans.calls);
  const double engine_us =
      static_cast<double>(facade_ns - spans.ns) * 1e-3 / steps;
  const double policy_us = static_cast<double>(spans.ns) * 1e-3 / steps;
  auto& m = result.metrics;
  m["engine.self_us_per_step"] = engine_us;
  m["engine.candidates_per_step"] = candidates_per_step;
  m["engine.us_per_candidate"] = engine_us / candidates_per_step;
  m["policy.us_per_step"] = policy_us;
  m["policy.us_per_candidate"] = policy_us / candidates_per_step;
  m["policy.share"] =
      static_cast<double>(spans.ns) / static_cast<double>(facade_ns);
  m["stochastic.predict_calls_per_step"] =
      static_cast<double>(predicts.calls) / steps;
  m["stochastic.predict_us_per_step"] = predicts.EstimatedNs() * 1e-3 / steps;
  m["setup.policy_s"] = Quantile(policy_setup_s, 0.5);
  m["bench.trace_overhead"] = Quantile(traced_s_per_pass, kQuietQuantile) /
                                  Quantile(untraced_s, kQuietQuantile) -
                              1.0;
  return result;
}

}  // namespace perfbench
