// serve-prob-open: many small PROB sessions fed open-loop through
// serve::SessionScheduler by one driver thread (README.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.h"
#include "report.h"
#include "sjoin/common/rng.h"
#include "sjoin/engine/join_simulator.h"
#include "sjoin/engine/stream_engine.h"
#include "sjoin/policies/prob_policy.h"
#include "sjoin/serve/session_scheduler.h"
#include "trace.h"
#include "workload_util.h"

namespace perfbench {
namespace {

constexpr int kSessions = 256;
constexpr std::size_t kCapacity = 16;
constexpr sjoin::Time kWarmup = 4 * kCapacity;
constexpr sjoin::Value kDomain = 12;
constexpr sjoin::Time kStepsPerTick = 2;
constexpr std::int64_t kTickNs = 8'000'000;
/// The driver sleeps until this long before a tick's due time and spins
/// the rest, so the latency it measures does not include how late the OS
/// woke it.
constexpr std::int64_t kSpinNs = 200'000;
constexpr int kWorkers = 2;
constexpr sjoin::Time kQuotaUnit = 4;
constexpr int kReplayThreads = 3;
/// Latency quantiles are taken per window of this many ticks (80 ms):
/// short enough that a run holds hundreds, so its quiet end needs only a
/// few seconds of quiet machine.
constexpr int kWindowTicks = 10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Everything one scheduler run needs. Built in place and never moved:
/// adapters, decorators and the scheduler hold pointers into it.
struct ServeSetup {
  int ticks = 0;
  /// Per session: the R and S realizations, ticks * kStepsPerTick long.
  std::vector<std::vector<sjoin::Value>> r;
  std::vector<std::vector<sjoin::Value>> s;
  std::vector<sjoin::ProbPolicy> policies;
  std::vector<PolicySpans> spans;
  std::vector<StepCounters> counters;
  std::vector<TracedReplacementPolicy> traced;
  std::vector<CountingObserver> observers;
  std::vector<sjoin::BinaryPolicyAdapter> adapters;
  std::unique_ptr<sjoin::serve::SessionScheduler> scheduler;
  std::vector<sjoin::serve::SessionId> ids;
  bool admitted = true;
};

std::unique_ptr<ServeSetup> BuildSetup(std::uint64_t seed, int ticks,
                                       bool trace) {
  auto setup = std::make_unique<ServeSetup>();
  setup->ticks = ticks;
  const sjoin::Time length = static_cast<sjoin::Time>(ticks) * kStepsPerTick;
  sjoin::Rng rng(DeriveSeed(seed, 1));
  auto sample = [&] {
    std::vector<sjoin::Value> values(static_cast<std::size_t>(length));
    for (sjoin::Value& v : values) v = rng.UniformInt(0, kDomain - 1);
    return values;
  };
  for (int i = 0; i < kSessions; ++i) {
    setup->r.push_back(sample());
    setup->s.push_back(sample());
  }

  setup->policies.resize(kSessions);
  setup->spans.resize(kSessions);
  setup->counters.resize(kSessions);
  setup->traced.reserve(kSessions);
  setup->observers.reserve(kSessions);
  setup->adapters.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    if (trace) {
      setup->traced.emplace_back(&setup->policies[i], nullptr,
                                 &setup->spans[i]);
      setup->observers.emplace_back(&setup->counters[i]);
      setup->adapters.emplace_back(&setup->traced[i]);
    } else {
      setup->adapters.emplace_back(&setup->policies[i]);
    }
  }

  sjoin::serve::SessionScheduler::Options options;
  options.max_sessions = kSessions;
  options.quota_unit = kQuotaUnit;
  options.threads = kWorkers;
  setup->scheduler = std::make_unique<sjoin::serve::SessionScheduler>(
      sjoin::StreamTopology::Binary(), options);
  for (int i = 0; i < kSessions; ++i) {
    sjoin::serve::SessionConfig config;
    config.engine = {.capacity = kCapacity, .warmup = kWarmup};
    config.policy = &setup->adapters[i];
    if (trace) config.observers = {&setup->observers[i]};
    const sjoin::serve::Admission admission = setup->scheduler->Open(config);
    // Ids index the session table in admission order; the latency
    // bookkeeping relies on id == i.
    setup->admitted = setup->admitted && admission.ok() && admission.id == i;
    setup->ids.push_back(admission.id);
  }
  return setup;
}

struct ServeRun {
  /// (latency from the tick's due time to its round's end, steps), and
  /// the tick each sample belongs to.
  std::vector<std::pair<double, std::int64_t>> latency_us;
  std::vector<int> latency_tick;
  std::vector<double> late_us;
  std::vector<double> round_us;
  std::int64_t round_ns = 0;
  std::int64_t offer_ns = 0;
  std::int64_t offered = 0;
  std::int64_t accepted = 0;
  std::int64_t executed = 0;
  std::int64_t queue_depth_max = 0;
  double wall_s = 0.0;
  /// Steps each session accepted at each tick, to rebuild its input.
  std::vector<std::vector<std::uint8_t>> accepted_per_tick;
};

/// The open loop: at every tick's due time, offer each session its next
/// kStepsPerTick steps and run a round; between ticks, run rounds while
/// work is queued. `trace` adds the driver-side timings of Offer and the
/// queue-depth scan.
ServeRun RunOpenLoop(ServeSetup& setup, bool trace) {
  sjoin::serve::SessionScheduler& scheduler = *setup.scheduler;
  ServeRun run;
  run.accepted_per_tick.assign(kSessions,
                               std::vector<std::uint8_t>(setup.ticks, 0));
  std::vector<std::deque<std::pair<int, sjoin::Time>>> pending(kSessions);
  std::vector<sjoin::Value> r_buf(kStepsPerTick);
  std::vector<sjoin::Value> s_buf(kStepsPerTick);
  const std::vector<const std::vector<sjoin::Value>*> rows = {&r_buf,
                                                              &s_buf};
  std::size_t slices_seen = 0;
  std::int64_t queued = 0;
  // Every buffer the loop appends to is sized up front: a reallocation
  // inside the loop would stall the driver and show up as latency.
  run.late_us.reserve(setup.ticks);
  run.round_us.reserve(4 * static_cast<std::size_t>(setup.ticks));
  run.latency_us.reserve(4 * static_cast<std::size_t>(setup.ticks));
  run.latency_tick.reserve(4 * static_cast<std::size_t>(setup.ticks));
  std::vector<std::int64_t> steps_of_tick(setup.ticks, 0);
  std::vector<int> ticks_in_round;
  ticks_in_round.reserve(setup.ticks);
  const std::int64_t start = NowNs() + 1'000'000;
  auto due = [&](int tick) { return start + tick * kTickNs; };

  // All steps of one tick that one round executes share a latency, so the
  // sample is kept as (latency, steps) per tick and round.
  auto run_round = [&] {
    const std::int64_t begin = NowNs();
    const std::int64_t ran = scheduler.RunRound();
    const std::int64_t end = NowNs();
    run.round_us.push_back(static_cast<double>(end - begin) * 1e-3);
    run.round_ns += end - begin;
    run.executed += ran;
    queued -= ran;
    const std::vector<sjoin::serve::SliceLatency>& slices =
        scheduler.slice_latencies();
    for (; slices_seen < slices.size(); ++slices_seen) {
      sjoin::Time left = slices[slices_seen].steps;
      auto& fifo = pending[static_cast<std::size_t>(
          slices[slices_seen].session)];
      while (left > 0 && !fifo.empty()) {
        auto& [tick, steps] = fifo.front();
        const sjoin::Time take = std::min(left, steps);
        if (steps_of_tick[tick] == 0) ticks_in_round.push_back(tick);
        steps_of_tick[tick] += take;
        steps -= take;
        left -= take;
        if (steps == 0) fifo.pop_front();
      }
    }
    for (int tick : ticks_in_round) {
      run.latency_us.emplace_back(static_cast<double>(end - due(tick)) * 1e-3,
                                  steps_of_tick[tick]);
      run.latency_tick.push_back(tick);
      steps_of_tick[tick] = 0;
    }
    ticks_in_round.clear();
  };

  for (int tick = 0; tick < setup.ticks; ++tick) {
    while (queued > 0 && NowNs() < due(tick)) run_round();
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due(tick) - kSpinNs)));
    while (NowNs() < due(tick)) {
    }
    run.late_us.push_back(static_cast<double>(NowNs() - due(tick)) * 1e-3);
    const std::size_t offset = static_cast<std::size_t>(tick) * kStepsPerTick;
    for (int i = 0; i < kSessions; ++i) {
      std::copy_n(setup.r[i].begin() + offset, kStepsPerTick, r_buf.begin());
      std::copy_n(setup.s[i].begin() + offset, kStepsPerTick, s_buf.begin());
      const std::int64_t begin = trace ? NowNs() : 0;
      const std::size_t accepted = scheduler.Offer(setup.ids[i], rows);
      if (trace) run.offer_ns += NowNs() - begin;
      run.offered += kStepsPerTick;
      run.accepted += static_cast<std::int64_t>(accepted);
      queued += static_cast<std::int64_t>(accepted);
      run.accepted_per_tick[i][tick] = static_cast<std::uint8_t>(accepted);
      if (accepted > 0) {
        pending[i].emplace_back(tick, static_cast<sjoin::Time>(accepted));
      }
      if (tick + 1 == setup.ticks) scheduler.Finish(setup.ids[i]);
    }
    if (trace) {
      for (sjoin::serve::SessionId id : setup.ids) {
        run.queue_depth_max = std::max(
            run.queue_depth_max,
            static_cast<std::int64_t>(scheduler.queued_steps(id)));
      }
    }
    run_round();
  }
  while (queued > 0) run_round();
  scheduler.Drain();
  run.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return run;
}

/// Replays every session solo through the JoinSimulator façade on the
/// arrivals it accepted; returns the steps of sessions that differ. The
/// replays are independent, so they run on kReplayThreads threads.
std::int64_t MismatchedSteps(const ServeSetup& setup, const ServeRun& run) {
  const sjoin::JoinSimulator solo(
      {.capacity = kCapacity, .warmup = kWarmup});
  std::vector<std::int64_t> mismatched(kSessions, 0);
  auto replay = [&](int i) {
    std::vector<sjoin::Value> r, s;
    for (int tick = 0; tick < setup.ticks; ++tick) {
      const std::size_t offset =
          static_cast<std::size_t>(tick) * kStepsPerTick;
      for (std::size_t k = 0; k < run.accepted_per_tick[i][tick]; ++k) {
        r.push_back(setup.r[i][offset + k]);
        s.push_back(setup.s[i][offset + k]);
      }
    }
    sjoin::ProbPolicy policy;
    const sjoin::JoinRunResult expected = solo.Run(r, s, policy);
    const sjoin::EngineRunResult& served =
        setup.scheduler->result(setup.ids[i]);
    if (served.counted_results != expected.counted_results ||
        served.total_results != expected.total_results) {
      mismatched[i] = static_cast<std::int64_t>(r.size());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kReplayThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kSessions; i += kReplayThreads) replay(i);
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::int64_t total = 0;
  for (int i = 0; i < kSessions; ++i) {
    if (mismatched[i] == 0) continue;
    std::fprintf(stderr, "serve-prob-open: session %d differs from its "
                 "solo replay\n", i);
    total += mismatched[i];
  }
  return total;
}

/// Step-weighted latency quantile `q` of each kWindowTicks window, taken
/// at the quiet end of the run's windows (kQuietQuantile).
double QuietWindowLatency(const ServeRun& run, double q) {
  std::vector<std::vector<std::pair<double, std::int64_t>>> windows;
  for (std::size_t i = 0; i < run.latency_us.size(); ++i) {
    const std::size_t window =
        static_cast<std::size_t>(run.latency_tick[i] / kWindowTicks);
    if (window >= windows.size()) windows.resize(window + 1);
    windows[window].push_back(run.latency_us[i]);
  }
  std::vector<double> per_window;
  for (const auto& samples : windows) {
    if (!samples.empty()) per_window.push_back(WeightedQuantile(samples, q));
  }
  return Quantile(per_window, kQuietQuantile);
}

std::int64_t CountedResults(const ServeSetup& setup) {
  std::int64_t counted = 0;
  for (sjoin::serve::SessionId id : setup.ids) {
    counted += setup.scheduler->result(id).counted_results;
  }
  return counted;
}

/// Runs one open loop and its checks; adds its operations to `result`.
ServeRun RunAndCheck(ServeSetup& setup, bool trace, BenchResult* result) {
  ServeRun run = RunOpenLoop(setup, trace);
  const std::int64_t mismatched = MismatchedSteps(setup, run);
  result->attempted += run.offered;
  result->failed += (run.offered - run.accepted) + mismatched;
  if (mismatched > 0 || run.executed != run.accepted) {
    result->correct = false;
  }
  return run;
}

}  // namespace

BenchResult RunServeProbOpen(const BenchArgs& args) {
  BenchResult result;
  const int ticks = static_cast<int>(args.seconds * 1e9 / kTickNs);
  // The traced run splits its window into an untraced and a traced half
  // over identical inputs.
  const int run_ticks = args.trace ? ticks / 2 : ticks;
  std::unique_ptr<ServeSetup> setup;
  result.metrics["setup_s"] = MedianSetupSeconds(kSetupRepeats, [&] {
    setup.reset();
    setup = BuildSetup(args.seed, run_ticks, /*trace=*/false);
  });
  if (!setup->admitted) {
    std::fprintf(stderr, "serve-prob-open: a session was not admitted\n");
    result.correct = false;
    result.attempted = result.failed = kSessions;
    return result;
  }

  const ServeRun run = RunAndCheck(*setup, /*trace=*/false, &result);
  if (!args.trace) {
    result.metrics["steps_per_s"] =
        static_cast<double>(run.executed) / run.wall_s;
    result.metrics["event_latency_us_p50"] = QuietWindowLatency(run, 0.5);
    result.metrics["counted_results"] =
        static_cast<double>(CountedResults(*setup));
    return result;
  }

  const std::unique_ptr<ServeSetup> traced_setup =
      BuildSetup(args.seed, run_ticks, /*trace=*/true);
  const ServeRun traced = RunAndCheck(*traced_setup, /*trace=*/true, &result);
  if (CountedResults(*traced_setup) != CountedResults(*setup)) {
    std::fprintf(stderr, "serve-prob-open: traced run counted %lld, "
                 "untraced %lld\n",
                 static_cast<long long>(CountedResults(*traced_setup)),
                 static_cast<long long>(CountedResults(*setup)));
    result.correct = false;
  }

  auto slice_ns = [](const ServeSetup& s) {
    std::int64_t ns = 0;
    for (const auto& slice : s.scheduler->slice_latencies()) ns += slice.ns;
    return ns;
  };
  std::int64_t policy_ns = 0;
  std::int64_t candidates = 0;
  std::int64_t observed_steps = 0;
  for (int i = 0; i < kSessions; ++i) {
    policy_ns += traced_setup->spans[i].ns;
    candidates += traced_setup->counters[i].candidates;
    observed_steps += traced_setup->counters[i].steps;
  }
  const double steps = static_cast<double>(traced.executed);
  const double traced_slice_ns = static_cast<double>(slice_ns(*traced_setup));
  const double candidates_per_step =
      static_cast<double>(candidates) / static_cast<double>(observed_steps);
  const double engine_us =
      (traced_slice_ns - static_cast<double>(policy_ns)) * 1e-3 / steps;
  const double policy_us = static_cast<double>(policy_ns) * 1e-3 / steps;
  const double untraced_slice_us_per_step =
      static_cast<double>(slice_ns(*setup)) * 1e-3 /
      static_cast<double>(run.executed);
  auto& m = result.metrics;
  m["engine.self_us_per_step"] = engine_us;
  m["engine.candidates_per_step"] = candidates_per_step;
  m["engine.us_per_candidate"] = engine_us / candidates_per_step;
  m["policy.us_per_step"] = policy_us;
  m["policy.us_per_candidate"] = policy_us / candidates_per_step;
  m["policy.share"] = static_cast<double>(policy_ns) / traced_slice_ns;
  m["serve.round_us_p50"] = Quantile(traced.round_us, 0.5);
  m["serve.round_us_p99"] = Quantile(traced.round_us, 0.99);
  m["serve.slice_us_per_step"] = traced_slice_ns * 1e-3 / steps;
  m["serve.offer_us_per_step"] = static_cast<double>(traced.offer_ns) * 1e-3 /
                                 static_cast<double>(traced.accepted);
  m["serve.worker_busy_frac"] =
      traced_slice_ns / (static_cast<double>(traced.round_ns) * kWorkers);
  m["serve.queue_depth_max"] = static_cast<double>(traced.queue_depth_max);
  m["bench.generator_late_us_p99"] = Quantile(run.late_us, 0.99);
  m["bench.trace_overhead"] =
      traced_slice_ns * 1e-3 / steps / untraced_slice_us_per_step - 1.0;
  return result;
}

}  // namespace perfbench
