#include "sjoin/engine/ranked_select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sjoin/common/rng.h"
#include "sjoin/engine/rank_order.h"

namespace sjoin {
namespace {

// The joining key shape, (score, arrival, id), is RankedTuple. The caching
// key shape is the Theorem 1 reduction's (score, is-referenced, value).
struct CachingKey {
  double score = 0.0;
  bool is_referenced = false;
  Value value = 0;
};

bool CachingBetter(const CachingKey& a, const CachingKey& b) {
  return RankOrderBetter(a.score, static_cast<int>(a.is_referenced), a.value,
                         b.score, static_cast<int>(b.is_referenced), b.value);
}

bool SameKey(const RankedTuple& a, const RankedTuple& b) {
  // Bitwise score equality, so -0.0 vs 0.0 and NaN payloads count.
  return std::memcmp(&a.score, &b.score, sizeof(double)) == 0 &&
         a.arrival == b.arrival && a.id == b.id;
}

bool SameKey(const CachingKey& a, const CachingKey& b) {
  return std::memcmp(&a.score, &b.score, sizeof(double)) == 0 &&
         a.is_referenced == b.is_referenced && a.value == b.value;
}

// Runs RankTopK on `input` and checks it against a full std::sort: the
// kept prefix equals the sorted prefix element for element, and the rest
// is the sorted suffix as a set. Returns the comparator call count.
template <typename T, typename Better>
std::int64_t ExpectMatchesFullSort(const std::vector<T>& input,
                                   std::size_t keep, Better better,
                                   const std::string& label) {
  std::vector<T> reference = input;
  std::sort(reference.begin(), reference.end(), better);
  std::vector<T> ranked = input;
  std::int64_t comparisons = 0;
  RankTopK(ranked.begin(), ranked.end(), keep,
           [&](const T& a, const T& b) {
             ++comparisons;
             return better(a, b);
           });
  const std::size_t kept = std::min(keep, input.size());
  for (std::size_t i = 0; i < kept; ++i) {
    EXPECT_TRUE(SameKey(ranked[i], reference[i]))
        << label << " keep=" << keep << " position " << i;
  }
  std::sort(ranked.begin() + static_cast<std::ptrdiff_t>(kept), ranked.end(),
            better);
  for (std::size_t i = kept; i < input.size(); ++i) {
    EXPECT_TRUE(SameKey(ranked[i], reference[i]))
        << label << " keep=" << keep << " evicted position " << i;
  }
  return comparisons;
}

template <typename T, typename Better>
void ExpectAllKeeps(const std::vector<T>& input, Better better,
                    const std::string& label) {
  const std::size_t n = input.size();
  std::vector<std::size_t> keeps = {0, 1, n, n + 1};
  if (n >= 1) keeps.push_back(n - 1);
  for (std::size_t keep : keeps) {
    ExpectMatchesFullSort(input, keep, better, label);
  }
}

std::vector<double> Scores(Rng& rng, std::size_t n) {
  std::vector<double> scores;
  for (std::size_t i = 0; i < n; ++i) scores.push_back(rng.UniformReal());
  return scores;
}

std::vector<RankedTuple> AsTuples(const std::vector<double>& scores) {
  std::vector<RankedTuple> tuples;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    tuples.push_back({scores[i], static_cast<Time>(i / 2),
                      static_cast<TupleId>(i)});
  }
  return tuples;
}

std::vector<CachingKey> AsCachingKeys(const std::vector<double>& scores) {
  std::vector<CachingKey> keys;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    // The last candidate plays the referenced value.
    keys.push_back({scores[i], i + 1 == scores.size(),
                    static_cast<Value>(i) * 3 - 7});
  }
  return keys;
}

void ExpectBothShapes(const std::vector<double>& scores,
                      const std::string& label) {
  ExpectAllKeeps(AsTuples(scores), RankedTupleBetter, label + " tuples");
  ExpectAllKeeps(AsCachingKeys(scores), CachingBetter, label + " caching");
}

const std::size_t kSizes[] = {0, 1, 2, 3, 5, 17, 64, 203};

TEST(RankedSelectTest, RandomPermutations) {
  Rng rng(3);
  for (std::size_t n : kSizes) {
    for (int trial = 0; trial < 5; ++trial) {
      ExpectBothShapes(Scores(rng, n), "random n=" + std::to_string(n));
    }
  }
}

TEST(RankedSelectTest, NearlySortedRunWithTwoArrivals) {
  // Last step's retained order with every score slightly perturbed, then
  // two arrivals appended — the serial scored step's usual input.
  Rng rng(5);
  for (std::size_t n : kSizes) {
    if (n < 2) continue;
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> scores = Scores(rng, n - 2);
      std::sort(scores.begin(), scores.end(), std::greater<double>());
      for (double& s : scores) s += 0.01 * (rng.UniformReal() - 0.5);
      scores.push_back(rng.UniformReal());
      scores.push_back(rng.UniformReal());
      ExpectBothShapes(scores, "nearly sorted n=" + std::to_string(n));
    }
  }
}

// Ascending scores: the worst candidate first, the exact reverse of rank.
std::vector<double> Reversed(std::size_t n) {
  std::vector<double> scores;
  for (std::size_t i = 0; i < n; ++i) scores.push_back(static_cast<double>(i));
  return scores;
}

TEST(RankedSelectTest, ReversedInputTakesTheFallback) {
  for (std::size_t n : kSizes) {
    ExpectBothShapes(Reversed(n), "reversed n=" + std::to_string(n));
  }
  // A full insertion sort of reversed input makes n(n-1)/2 comparisons;
  // the move budget cuts the pass short, so the total stays near
  // n log n.
  const std::size_t n = 1000;
  for (std::size_t keep : {n - 1, n}) {
    const std::int64_t comparisons = ExpectMatchesFullSort(
        AsTuples(Reversed(n)), keep, RankedTupleBetter, "reversed n=1000");
    EXPECT_LT(comparisons, static_cast<std::int64_t>(n * n / 20))
        << "keep=" << keep;
  }
}

TEST(RankedSelectTest, AllEqualScoresDecidedByTieBreak) {
  for (std::size_t n : kSizes) {
    ExpectBothShapes(std::vector<double>(n, 0.25),
                     "all equal n=" + std::to_string(n));
  }
}

TEST(RankedSelectTest, NonFiniteAndSignedZeroScores) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {nan, inf, -inf, -0.0, 0.0, 1.0, -1.0};
  Rng rng(11);
  for (std::size_t n : kSizes) {
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> scores;
      for (std::size_t i = 0; i < n; ++i) {
        scores.push_back(specials[rng.UniformInt(0, 6)]);
      }
      ExpectBothShapes(scores, "non-finite n=" + std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace sjoin
