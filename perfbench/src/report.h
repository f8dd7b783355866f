#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "perfbench.h"

/// \file
/// Order statistics and the one-line JSON result the benchmark prints.

namespace perfbench {

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics, as numpy's default; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Quantile of a sample given as (value, weight) pairs: the smallest value
/// whose cumulative weight reaches q of the total.
double WeightedQuantile(std::vector<std::pair<double, std::int64_t>> samples,
                        double q);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Prints the result line: every end-to-end metric (untraced run) or
/// every per-layer metric (traced run) with its unit, in a fixed order. A
/// metric the workload did not produce reads 0.
void PrintResult(const BenchResult& result, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
