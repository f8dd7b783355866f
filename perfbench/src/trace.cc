#include "trace.h"

#include <algorithm>

namespace perfbench {

std::int64_t ClockPairNs() {
  static const std::int64_t pair_ns = [] {
    std::vector<std::int64_t> samples(1001);
    for (std::int64_t& sample : samples) {
      const std::int64_t start = NowNs();
      sample = NowNs() - start;
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return samples[500];
  }();
  return pair_ns;
}

void StepClock::Tick() {
  const std::int64_t now = NowNs();
  if (last_ns_ >= 0) {
    intervals_us_.push_back(static_cast<double>(now - last_ns_) * 1e-3);
  }
  last_ns_ = now;
}

void TracedReplacementPolicy::Reset() {
  if (clock_ != nullptr) clock_->Restart();
  inner_->Reset();
}

std::vector<sjoin::TupleId> TracedReplacementPolicy::SelectRetained(
    const sjoin::PolicyContext& ctx) {
  if (clock_ != nullptr) clock_->Tick();
  if (spans_ == nullptr) return inner_->SelectRetained(ctx);
  const std::int64_t start = NowNs();
  std::vector<sjoin::TupleId> retained = inner_->SelectRetained(ctx);
  spans_->ns += NowNs() - start;
  spans_->calls += 1;
  spans_->candidates += static_cast<std::int64_t>(ctx.cached->size() +
                                                  ctx.arrivals->size());
  return retained;
}

void TracedCachingPolicy::Reset() {
  if (clock_ != nullptr) clock_->Restart();
  inner_->Reset();
}

std::vector<sjoin::Value> TracedCachingPolicy::SelectRetained(
    const sjoin::CachingContext& ctx) {
  if (spans_ == nullptr) return inner_->SelectRetained(ctx);
  const std::int64_t start = NowNs();
  std::vector<sjoin::Value> retained = inner_->SelectRetained(ctx);
  spans_->ns += NowNs() - start;
  return retained;
}

void TracedCachingPolicy::Observe(const sjoin::CachingContext& ctx) {
  if (clock_ != nullptr) clock_->Tick();
  if (spans_ == nullptr) {
    inner_->Observe(ctx);
    return;
  }
  const std::int64_t start = NowNs();
  inner_->Observe(ctx);
  spans_->ns += NowNs() - start;
  spans_->calls += 1;
  spans_->candidates += static_cast<std::int64_t>(ctx.cached->size()) + 1;
}

double PredictCounters::EstimatedNs() const {
  if (sampled == 0) return 0.0;
  const double mean_ns =
      static_cast<double>(sampled_ns) / static_cast<double>(sampled) -
      static_cast<double>(ClockPairNs());
  return std::max(0.0, mean_ns) * static_cast<double>(calls);
}

sjoin::DiscreteDistribution TracedProcess::Predict(
    const sjoin::StreamHistory& history, sjoin::Time t) const {
  if (!Sampled()) return inner_->Predict(history, t);
  const std::int64_t start = NowNs();
  sjoin::DiscreteDistribution out = inner_->Predict(history, t);
  counters_->sampled_ns += NowNs() - start;
  counters_->sampled += 1;
  return out;
}

void TracedProcess::PredictInto(const sjoin::StreamHistory& history,
                                sjoin::Time t,
                                sjoin::DiscreteDistribution* out) const {
  if (!Sampled()) {
    inner_->PredictInto(history, t, out);
    return;
  }
  const std::int64_t start = NowNs();
  inner_->PredictInto(history, t, out);
  counters_->sampled_ns += NowNs() - start;
  counters_->sampled += 1;
}

std::unique_ptr<sjoin::StochasticProcess> TracedProcess::Clone() const {
  std::unique_ptr<sjoin::StochasticProcess> inner = inner_->Clone();
  auto clone =
      std::make_unique<TracedProcess>(inner.get(), counters_, sample_every_);
  clone->owned_ = std::move(inner);
  return clone;
}

}  // namespace perfbench
