#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "sjoin/engine/caching_policy.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/engine/step_observer.h"
#include "sjoin/stochastic/process.h"

/// \file
/// Forwarding decorators that time the library's layers from outside, at
/// the calls into them. Each decorator wraps the object a workload would
/// hand to the library and forwards every call unchanged, so a decorated
/// run produces the same results as a bare one (the workloads check this).
///
/// Counters are plain integers: a decorator belongs to one run, and a run
/// touches it from one thread at a time (the serve workload gives every
/// session its own decorators; the scheduler runs a session on one worker
/// per round and joins the round before the driver reads).

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of one back-to-back pair of NowNs() reads, measured once.
std::int64_t ClockPairNs();

/// Calls into the policy layer: how many, their total wall time, and the
/// candidate-set sizes they were handed.
struct PolicySpans {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t candidates = 0;
};

/// Step latency of a closed loop: the interval between successive entries
/// into the policy, which the engine makes exactly once per step. Costs one
/// clock read per step. Restart() at each run start drops the interval
/// that would span two runs. `steps_per_pass` sizes the buffer up front so
/// a timed pass never reallocates it.
class StepClock {
 public:
  explicit StepClock(std::size_t steps_per_pass) {
    intervals_us_.reserve(steps_per_pass);
  }

  void Restart() { last_ns_ = -1; }
  void Tick();
  void Clear() { intervals_us_.clear(); }
  const std::vector<double>& intervals_us() const { return intervals_us_; }

 private:
  std::int64_t last_ns_ = -1;
  std::vector<double> intervals_us_;
};

/// ReplacementPolicy decorator. `clock` and `spans` are optional (null =
/// not recorded) and not owned. shard_scoring() and WantsCandidateBatch()
/// pass through, so the engine takes the same path as with the bare
/// policy; the sharded protocol's calls then bypass the decorator, which is
/// why the workloads run the engine serially.
class TracedReplacementPolicy final : public sjoin::ReplacementPolicy {
 public:
  TracedReplacementPolicy(sjoin::ReplacementPolicy* inner, StepClock* clock,
                          PolicySpans* spans)
      : inner_(inner), clock_(clock), spans_(spans) {}

  void Reset() override;
  std::vector<sjoin::TupleId> SelectRetained(
      const sjoin::PolicyContext& ctx) override;
  sjoin::PolicyShardScoring* shard_scoring() override {
    return inner_->shard_scoring();
  }
  bool WantsCandidateBatch() const override {
    return inner_->WantsCandidateBatch();
  }
  const char* name() const override { return inner_->name(); }

 private:
  sjoin::ReplacementPolicy* inner_;
  StepClock* clock_;
  PolicySpans* spans_;
};

/// CachingPolicy decorator. The engine calls Observe once per reference
/// and SelectRetained only on a miss; both count as policy time, and
/// Observe drives the step clock. The candidate set of a reference is the
/// cached values plus the referenced one.
class TracedCachingPolicy final : public sjoin::CachingPolicy {
 public:
  TracedCachingPolicy(sjoin::CachingPolicy* inner, StepClock* clock,
                      PolicySpans* spans)
      : inner_(inner), clock_(clock), spans_(spans) {}

  void Reset() override;
  std::vector<sjoin::Value> SelectRetained(
      const sjoin::CachingContext& ctx) override;
  void Observe(const sjoin::CachingContext& ctx) override;
  const char* name() const override { return inner_->name(); }

 private:
  sjoin::CachingPolicy* inner_;
  StepClock* clock_;
  PolicySpans* spans_;
};

/// Prediction calls into a stochastic model. Every call is counted; only
/// one call in `sample_every` is timed, because reading the clock around
/// each of the hundreds of calls per step would inflate the policy's time
/// by more than the calls themselves cost.
struct PredictCounters {
  std::int64_t calls = 0;
  std::int64_t sampled = 0;
  std::int64_t sampled_ns = 0;

  /// Estimated total time of all calls: the mean timed call, less the
  /// cost of the clock reads around it, times the number of calls.
  double EstimatedNs() const;
};

/// StochasticProcess decorator counting Predict / PredictInto calls.
class TracedProcess final : public sjoin::StochasticProcess {
 public:
  /// `inner` and `counters` are not owned and must outlive this object.
  TracedProcess(const sjoin::StochasticProcess* inner,
                PredictCounters* counters, std::int64_t sample_every)
      : inner_(inner), counters_(counters), sample_every_(sample_every) {}

  sjoin::DiscreteDistribution Predict(const sjoin::StreamHistory& history,
                                      sjoin::Time t) const override;
  void PredictInto(const sjoin::StreamHistory& history, sjoin::Time t,
                   sjoin::DiscreteDistribution* out) const override;
  sjoin::Value SampleNext(const sjoin::StreamHistory& history,
                          sjoin::Rng& rng) const override {
    return inner_->SampleNext(history, rng);
  }
  bool IsIndependent() const override { return inner_->IsIndependent(); }
  /// The clone owns a clone of the inner process and shares the counters.
  std::unique_ptr<sjoin::StochasticProcess> Clone() const override;

 private:
  bool Sampled() const {
    return ++counters_->calls % sample_every_ == 0;
  }

  const sjoin::StochasticProcess* inner_;
  PredictCounters* counters_;
  std::int64_t sample_every_;
  std::unique_ptr<sjoin::StochasticProcess> owned_;
};

/// Per-step counts an engine reports to its observers.
struct StepCounters {
  std::int64_t steps = 0;
  std::int64_t candidates = 0;
};

/// Observer counting the steps and candidate-set sizes an engine reports.
/// Serve sessions attach no observers of their own, so there is nothing to
/// forward to; it tolerates deferred delivery, as it reads scalars only.
class CountingObserver final : public sjoin::StepObserver {
 public:
  /// `counters` is not owned.
  explicit CountingObserver(StepCounters* counters) : counters_(counters) {}

  void OnStep(const sjoin::EngineStepView& step) override {
    counters_->steps += 1;
    counters_->candidates += static_cast<std::int64_t>(step.num_candidates);
  }
  bool AllowsBatchedSteps() const override { return true; }

 private:
  StepCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
