#ifndef SJOIN_TESTING_SCENARIO_GENERATOR_H_
#define SJOIN_TESTING_SCENARIO_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/common/types.h"
#include "sjoin/stochastic/process.h"

/// \file
/// Seeded random-scenario sampling for differential trials: a pair of
/// stream processes (walk / AR(1) / seasonal / linear-trend / scripted /
/// stationary), a cache size, an optional sliding window, and HEEB
/// lifetime-estimator parameters, all derived deterministically from one
/// uint64 seed so every failure reproduces from its seed alone.

namespace sjoin {
namespace testing {

/// One sampled experiment configuration.
struct Scenario {
  std::uint64_t seed = 0;
  std::unique_ptr<StochasticProcess> r_process;
  std::unique_ptr<StochasticProcess> s_process;
  std::size_t capacity = 2;
  Time length = 32;
  Time warmup = 0;
  std::optional<Time> window;
  /// L_exp parameter and truncation horizon for HEEB policies.
  double alpha = 5.0;
  Time horizon = 8;
  /// Human-readable shape, e.g. "trend(0.5)/seasonal" — for failure
  /// messages.
  std::string description;
};

/// Samples scenarios from a configurable process pool.
class ScenarioGenerator {
 public:
  /// Which process shapes a stream may take. Differential trials restrict
  /// the pool to match the optimized path under test (incremental HEEB
  /// needs independent steps, Corollary 5 equal-slope linear trends,
  /// Theorem 5(2) random walks).
  enum class Pool {
    /// Any supported process, including history-dependent walk and AR(1).
    kAny,
    /// Independent-step processes only (stationary / linear trend /
    /// seasonal / scripted).
    kIndependent,
    /// Both streams LinearTrendProcess with the same non-zero integer
    /// slope (value-incremental HEEB's requirement).
    kEqualSlopeTrends,
    /// Both streams random walks (walk-table HEEB's requirement).
    kWalks,
    /// Skewed independent-step processes: Zipf value popularity, bursty
    /// hot phases and regime switches that move the hot set mid-run
    /// (RegimeSwitchingProcess). The sharded_engine differential suite
    /// draws from it so a hot shard runs against the serial engine.
    kSkewed,
  };

  struct Options {
    Pool pool = Pool::kIndependent;
    Time min_length = 32;
    Time max_length = 96;
    std::size_t min_capacity = 1;
    std::size_t max_capacity = 8;
    /// Probability that the scenario uses a sliding window.
    double window_probability = 0.0;
    Time max_horizon = 24;
  };

  explicit ScenarioGenerator(Options options) : options_(options) {}

  /// Deterministic: equal seeds (and options) produce equal scenarios.
  Scenario Sample(std::uint64_t seed) const;

  const Options& options() const { return options_; }

 private:
  std::unique_ptr<StochasticProcess> SampleProcess(
      Rng& rng, Time length, std::string* description) const;
  std::unique_ptr<StochasticProcess> SampleSkewedProcess(
      Rng& rng, std::string* description) const;

  Options options_;
};

/// Draws one realization pair of the scenario's processes via SampleNext.
std::pair<std::vector<Value>, std::vector<Value>> SampleRealization(
    const Scenario& scenario, Rng& rng);

/// Draws a single-stream realization from `process` (for caching trials).
std::vector<Value> SampleStream(const StochasticProcess& process, Time length,
                                Rng& rng);

}  // namespace testing
}  // namespace sjoin

#endif  // SJOIN_TESTING_SCENARIO_GENERATOR_H_
