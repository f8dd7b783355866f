#ifndef SJOIN_STOCHASTIC_PREDICTION_RING_H_
#define SJOIN_STOCHASTIC_PREDICTION_RING_H_

#include <span>
#include <vector>

#include "sjoin/common/types.h"
#include "sjoin/stochastic/discrete_distribution.h"
#include "sjoin/stochastic/process.h"
#include "sjoin/stochastic/stream_history.h"

/// \file
/// The one home of per-step partner predictions.
///
/// Every look-ahead policy scores against the pmfs of X^s_T for the next
/// `horizon` times T. For a process whose per-step variables are
/// independent (StochasticProcess::IsIndependent), the pmf of X^s_T
/// depends on T alone, so step t + 1 needs all but one of step t's pmfs
/// unchanged: the ring keeps them keyed by absolute time and predicts only
/// the times that entered the window (Corollaries 3-4 exist so that HEEB
/// recomputes nothing that has not changed). Any other process is
/// re-predicted in full whenever the time moves.

namespace sjoin {

/// A non-owning view of one pmf: Prob(v) = masses[v - min] on
/// [min, min + size), exactly 0.0 elsewhere — the same doubles
/// DiscreteDistribution::Prob returns.
struct PmfView {
  Value min = 0;
  Value size = 0;
  const double* masses = nullptr;

  static PmfView Of(const DiscreteDistribution& pmf) {
    return {pmf.IsEmpty() ? 0 : pmf.MinValue(),
            static_cast<Value>(pmf.SupportSize()), pmf.masses().data()};
  }

  double Prob(Value v) const {
    const Value off = v - min;
    return off >= 0 && off < size ? masses[off] : 0.0;
  }
};

/// Predictive pmfs per stream for the absolute times of the window
/// [now, now + horizon] (independent processes) or [now + 1, now + horizon]
/// (any other process: X_now is already observed, so its prediction is
/// undefined).
///
/// Cost contract of Advance(now) from the previous time `last`, per stream:
///   - first call, after Reset, or when now < last: a full build, horizon + 1
///     predictions (independent) or horizon (any other process);
///   - now == last: nothing;
///   - independent, now > last: exactly min(now - last, horizon + 1)
///     predictions, one per time that entered the window, each written into
///     the slot of a time that left it;
///   - any other process, now > last: horizon predictions.
/// In SJOIN_VALIDATE builds, every advance that kept entries re-predicts
/// the window's oldest and newest entries (two more calls per independent
/// stream) and aborts unless both match bit for bit: a process that
/// reports IsIndependent() but reads its history fails here.
///
/// The ring reads no stream state between calls; it holds pointers to the
/// processes (not owned). Not copyable: views point into its own buffers.
class PredictionRing {
 public:
  PredictionRing() = default;
  PredictionRing(std::vector<const StochasticProcess*> processes,
                 Time horizon);
  PredictionRing(const PredictionRing&) = delete;
  PredictionRing& operator=(const PredictionRing&) = delete;
  PredictionRing(PredictionRing&&) = default;
  PredictionRing& operator=(PredictionRing&&) = default;

  /// Forgets every entry; the next Advance rebuilds in full.
  void Reset() { now_ = -1; }

  /// Brings the window to `now` (>= 0), predicting from `histories[s]` for
  /// stream s.
  void Advance(Time now, std::span<const StreamHistory* const> histories);
  void Advance(Time now, const std::vector<StreamHistory>& histories);

  /// The time of the last Advance; -1 before the first and after Reset.
  Time now() const { return now_; }
  Time horizon() const { return horizon_; }

  /// Whether the window of `stream` holds time `t`.
  bool Holds(int stream, Time t) const {
    return now_ >= 0 && t >= now_ + FirstDt(stream) && t <= now_ + horizon_;
  }

  /// The pmf of X^stream_t; requires Holds(stream, t).
  const DiscreteDistribution& At(int stream, Time t) const;

  /// Ahead(stream)[dt - 1] views the pmf of X^stream_{now + dt} for
  /// dt = 1..horizon, in ascending dt order.
  const PmfView* Ahead(int stream) const;

 private:
  struct Stream {
    const StochasticProcess* process = nullptr;
    bool independent = false;
    // The pmf of time T lives in slots[T % cap], cap = horizon + 1.
    std::vector<DiscreteDistribution> slots;
    // views[i] and views[i + cap] both view slots[i], so any cap
    // consecutive times read as one contiguous run of views.
    std::vector<PmfView> views;
  };

  Time FirstDt(int stream) const {
    return streams_[static_cast<std::size_t>(stream)].independent ? 0 : 1;
  }
  void AdvanceStream(Stream& stream, const StreamHistory& history, Time now);
  void PredictSlot(Stream& stream, const StreamHistory& history, Time t);

  std::vector<Stream> streams_;
  Time horizon_ = 0;
  Time now_ = -1;
  DiscreteDistribution check_;  // SJOIN_VALIDATE re-predictions.
};

}  // namespace sjoin

#endif  // SJOIN_STOCHASTIC_PREDICTION_RING_H_
