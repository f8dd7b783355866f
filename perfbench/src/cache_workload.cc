// cache-heeb-real: the Figure 13 REAL caching pipeline through the
// CacheSimulator façade, a closed loop on one thread (README.md).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "perfbench.h"
#include "report.h"
#include "sjoin/analysis/ar1_fit.h"
#include "sjoin/analysis/melbourne.h"
#include "sjoin/core/heeb_caching_policy.h"
#include "sjoin/core/model_repo.h"
#include "sjoin/engine/cache_simulator.h"
#include "sjoin/stochastic/ar1_process.h"
#include "sjoin/testing/naive_simulator.h"
#include "trace.h"
#include "workload_util.h"

namespace perfbench {
namespace {

/// References per pass: ten years of the synthetic daily temperature
/// series, the length of the paper's REAL data set.
constexpr std::size_t kDays = 3650;
constexpr std::size_t kMemory = 300;
/// The paper's warm-up rule: at least four times the cache size.
constexpr std::size_t kWarmup = 4 * kMemory;
/// Figure 13's surface: L_exp(alpha = memory), horizon 4 * memory + 50,
/// 10-deci-degree grid, 250 Monte Carlo paths, 5x5 bicubic control points.
constexpr sjoin::Time kHorizon = 4 * kMemory + 50;
constexpr sjoin::Value kXStep = 10;
constexpr int kPaths = 250;
constexpr int kControlPoints = 5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct CacheSetup {
  std::vector<sjoin::Value> series;
  std::shared_ptr<const sjoin::BicubicSurface> approx;
  std::unique_ptr<sjoin::HeebCachingPolicy> policy;
  double fit_s = 0.0;
  double surface_s = 0.0;
  double bicubic_s = 0.0;
  double policy_s = 0.0;
  sjoin::ModelRepo::Stats repo;
};

/// The whole pipeline, into a private ModelRepo so every set-up pays the
/// surface build. Returns false when the AR(1) fit fails.
bool BuildSetup(std::uint64_t seed, CacheSetup* setup) {
  setup->series = sjoin::SyntheticMelbourneDeciCelsius(kDays, seed);
  std::int64_t start = NowNs();
  const std::optional<sjoin::Ar1Fit> fit = sjoin::FitAr1(setup->series);
  setup->fit_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (!fit.has_value()) return false;
  const auto [lo, hi] =
      std::minmax_element(setup->series.begin(), setup->series.end());
  const sjoin::Value v_min = *lo - 20;
  const sjoin::Value v_max = *hi + 20;
  const sjoin::Ar1Process model(fit->phi0, fit->phi1, fit->sigma,
                                setup->series.front());
  const double alpha = static_cast<double>(kMemory);
  const std::uint64_t surface_seed = DeriveSeed(seed, 7);

  sjoin::ModelRepo repo;
  start = NowNs();
  repo.Ar1CachingSurfaceTable(model, alpha, kHorizon, v_min, v_max, v_min,
                              v_max, kXStep, kPaths, surface_seed);
  setup->surface_s = static_cast<double>(NowNs() - start) * 1e-9;
  start = NowNs();
  setup->approx = repo.Ar1CachingSurfaceBicubic(
      model, alpha, kHorizon, v_min, v_max, v_min, v_max, kXStep, kPaths,
      surface_seed, kControlPoints, kControlPoints);
  setup->bicubic_s = static_cast<double>(NowNs() - start) * 1e-9;
  setup->repo = repo.stats();

  start = NowNs();
  sjoin::HeebCachingPolicy::Options options;
  options.mode = sjoin::HeebCachingPolicy::Mode::kEvaluator;
  options.alpha = alpha;
  options.evaluator = [approx = setup->approx](sjoin::Value v,
                                               sjoin::Value last) {
    return approx->At(static_cast<double>(v), static_cast<double>(last));
  };
  setup->policy = std::make_unique<sjoin::HeebCachingPolicy>(nullptr, options);
  setup->policy_s = static_cast<double>(NowNs() - start) * 1e-9;
  return true;
}

bool SameRun(const sjoin::CacheRunResult& a, const sjoin::CacheRunResult& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.counted_hits == b.counted_hits &&
         a.counted_misses == b.counted_misses;
}

}  // namespace

BenchResult RunCacheHeebReal(const BenchArgs& args) {
  BenchResult result;
  CacheSetup setup;
  bool built = true;
  std::vector<double> fit_s, surface_s, bicubic_s, policy_s;
  result.metrics["setup_s"] = MedianSetupSeconds(kSetupRepeats, [&] {
    setup = CacheSetup();
    built = built && BuildSetup(DeriveSeed(args.seed, 1), &setup);
    fit_s.push_back(setup.fit_s);
    surface_s.push_back(setup.surface_s);
    bicubic_s.push_back(setup.bicubic_s);
    policy_s.push_back(setup.policy_s);
  });
  if (!built) {
    std::fprintf(stderr, "cache-heeb-real: AR(1) fit failed\n");
    result.correct = false;
    result.attempted = 1;
    result.failed = 1;
    return result;
  }
  const sjoin::CacheSimulator sim(
      {.capacity = kMemory, .warmup = static_cast<sjoin::Time>(kWarmup)});

  // Correctness gate: the façade (Theorem 1 reduction on the engine) must
  // match the direct naive caching loop bit for bit on the whole series.
  {
    const sjoin::CacheRunResult fast = sim.Run(setup.series, *setup.policy);
    const sjoin::CacheRunResult naive =
        sjoin::testing::NaiveCacheSimulator(sim.options())
            .Run(setup.series, *setup.policy);
    if (!SameRun(fast, naive)) {
      std::fprintf(stderr,
                   "cache-heeb-real: facade %lld hits / %lld misses, naive "
                   "%lld / %lld\n",
                   static_cast<long long>(fast.hits),
                   static_cast<long long>(fast.misses),
                   static_cast<long long>(naive.hits),
                   static_cast<long long>(naive.misses));
      result.correct = false;
      result.failed += static_cast<std::int64_t>(kDays);
    }
    result.attempted += static_cast<std::int64_t>(kDays);
  }

  // Every pass must repeat the first one exactly.
  std::optional<sjoin::CacheRunResult> reference;
  auto check = [&](const sjoin::CacheRunResult& run, const char* what) {
    result.attempted += static_cast<std::int64_t>(kDays);
    if (!reference.has_value()) {
      reference = run;
    } else if (!SameRun(run, *reference)) {
      std::fprintf(stderr, "cache-heeb-real: %s pass hit %lld, first pass "
                   "%lld\n", what, static_cast<long long>(run.hits),
                   static_cast<long long>(reference->hits));
      result.correct = false;
      result.failed += static_cast<std::int64_t>(kDays);
    }
  };

  StepClock clock(kDays);
  TracedCachingPolicy clocked(setup.policy.get(), &clock, nullptr);
  std::vector<PassStats> passes;
  auto untraced_pass = [&] {
    sjoin::CacheRunResult run;
    const PassStats stats = TimePass(
        clock, kWarmup, [&] { run = sim.Run(setup.series, clocked); });
    check(run, "untraced");
    passes.push_back(stats);
    return stats.seconds;
  };

  if (!args.trace) {
    RepeatFor(args.seconds, 1, [&](int) { untraced_pass(); });
    ReportPasses(passes, static_cast<double>(kDays), &result);
    result.metrics["counted_results"] =
        static_cast<double>(reference->counted_hits);
    return result;
  }

  // Traced run: pairs of an untraced and a traced pass.
  PolicySpans spans;
  TracedCachingPolicy traced(setup.policy.get(), nullptr, &spans);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::int64_t facade_ns = 0;
  std::int64_t traced_steps = 0;
  std::int64_t hits = 0;
  RepeatFor(args.seconds, 1, [&](int) {
    untraced_s.push_back(untraced_pass());
    const std::int64_t start = NowNs();
    const sjoin::CacheRunResult run = sim.Run(setup.series, traced);
    const std::int64_t ns = NowNs() - start;
    facade_ns += ns;
    traced_steps += static_cast<std::int64_t>(kDays);
    hits += run.hits;
    traced_s.push_back(static_cast<double>(ns) * 1e-9);
    check(run, "traced");
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
  m["setup.fit_s"] = Quantile(fit_s, 0.5);
  m["setup.surface_s"] = Quantile(surface_s, 0.5);
  m["setup.bicubic_s"] = Quantile(bicubic_s, 0.5);
  m["setup.policy_s"] = Quantile(policy_s, 0.5);
  m["core.repo_builds"] = static_cast<double>(setup.repo.builds);
  m["core.repo_hits"] = static_cast<double>(setup.repo.hits);
  m["cache.hit_ratio"] = static_cast<double>(hits) / steps;
  m["bench.trace_overhead"] =
      Quantile(traced_s, kQuietQuantile) / Quantile(untraced_s, kQuietQuantile) -
      1.0;
  return result;
}

}  // namespace perfbench
