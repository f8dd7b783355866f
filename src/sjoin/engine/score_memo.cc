#include "sjoin/engine/score_memo.h"

#include "sjoin/common/check.h"

namespace sjoin {

void ScoreMemo::Reset(int num_streams) {
  SJOIN_CHECK_GE(num_streams, 1);
  memo_.assign(static_cast<std::size_t>(num_streams), {});
  epoch_ = 0;
  stats_ = Stats();
}

void ScoreMemo::BeginStep() { ++epoch_; }

bool ScoreMemo::Lookup(int partner, Value value, Time max_dt, double* out) {
  auto& per_partner = memo_[static_cast<std::size_t>(partner)];
  auto it = per_partner.find(value);
  if (it == per_partner.end() || it->second.epoch != epoch_ ||
      it->second.max_dt != max_dt) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *out = it->second.subtotal;
  return true;
}

void ScoreMemo::Store(int partner, Value value, Time max_dt,
                      double subtotal) {
  memo_[static_cast<std::size_t>(partner)][value] = {epoch_, max_dt,
                                                     subtotal};
}

}  // namespace sjoin
