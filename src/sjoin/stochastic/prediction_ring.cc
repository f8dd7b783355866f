#include "sjoin/stochastic/prediction_ring.h"

#include "sjoin/common/check.h"
#include "sjoin/common/validate.h"

namespace sjoin {

namespace {

bool SamePmf(const DiscreteDistribution& a, const DiscreteDistribution& b) {
  if (a.IsEmpty() || b.IsEmpty()) return a.IsEmpty() && b.IsEmpty();
  return a.MinValue() == b.MinValue() && a.masses() == b.masses();
}

}  // namespace

PredictionRing::PredictionRing(std::vector<const StochasticProcess*> processes,
                               Time horizon)
    : horizon_(horizon) {
  SJOIN_CHECK_GE(horizon, 1);
  const auto cap = static_cast<std::size_t>(horizon) + 1;
  streams_.resize(processes.size());
  for (std::size_t s = 0; s < processes.size(); ++s) {
    SJOIN_CHECK(processes[s] != nullptr);
    streams_[s].process = processes[s];
    streams_[s].independent = processes[s]->IsIndependent();
    streams_[s].slots.resize(cap);
    streams_[s].views.resize(2 * cap);
  }
}

void PredictionRing::Advance(Time now,
                             std::span<const StreamHistory* const> histories) {
  SJOIN_CHECK_EQ(histories.size(), streams_.size());
  SJOIN_CHECK_GE(now, 0);
  if (now == now_) return;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    AdvanceStream(streams_[s], *histories[s], now);
  }
  now_ = now;
}

void PredictionRing::Advance(Time now,
                             const std::vector<StreamHistory>& histories) {
  SJOIN_CHECK_EQ(histories.size(), streams_.size());
  SJOIN_CHECK_GE(now, 0);
  if (now == now_) return;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    AdvanceStream(streams_[s], histories[s], now);
  }
  now_ = now;
}

void PredictionRing::AdvanceStream(Stream& stream,
                                   const StreamHistory& history, Time now) {
  const Time last = now_;
  const Time first = stream.independent ? now : now + 1;
  // An independent stream keeps the times both windows share and predicts
  // only those past the old window's end.
  const bool reuse = stream.independent && last >= 0 && now > last &&
                     now - last <= horizon_;
  const Time from = reuse ? last + horizon_ + 1 : first;
  for (Time t = from; t <= now + horizon_; ++t) {
    PredictSlot(stream, history, t);
  }
  if constexpr (kValidationEnabled) {
    if (reuse) {
      const auto cap = static_cast<Time>(stream.slots.size());
      for (Time t : {first, now + horizon_}) {
        stream.process->PredictInto(history, t, &check_);
        SJOIN_VALIDATE_MSG(
            SamePmf(check_, stream.slots[static_cast<std::size_t>(t % cap)]),
            "prediction ring entry differs from a fresh prediction: the "
            "process reports IsIndependent() but its pmf depends on the "
            "history");
      }
    }
  }
}

void PredictionRing::PredictSlot(Stream& stream, const StreamHistory& history,
                                 Time t) {
  const std::size_t cap = stream.slots.size();
  const std::size_t i = static_cast<std::size_t>(t) % cap;
  DiscreteDistribution& pmf = stream.slots[i];
  // PredictInto reuses the slot's mass buffer, so the steady state
  // allocates nothing; the views are refreshed because it may not.
  stream.process->PredictInto(history, t, &pmf);
  const PmfView view = PmfView::Of(pmf);
  stream.views[i] = view;
  stream.views[i + cap] = view;
}

const DiscreteDistribution& PredictionRing::At(int stream, Time t) const {
  SJOIN_CHECK_MSG(Holds(stream, t), "time outside the prediction window");
  const Stream& st = streams_[static_cast<std::size_t>(stream)];
  return st.slots[static_cast<std::size_t>(t) % st.slots.size()];
}

const PmfView* PredictionRing::Ahead(int stream) const {
  SJOIN_CHECK_GE(now_, 0);
  const Stream& st = streams_[static_cast<std::size_t>(stream)];
  return st.views.data() +
         static_cast<std::size_t>(now_ + 1) % st.slots.size();
}

}  // namespace sjoin
