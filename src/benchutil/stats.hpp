#pragma once
// Benchmark timing statistics.

#include <vector>

namespace gpa::benchutil {

struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  std::size_t samples = 0;
};

Stats compute_stats(std::vector<double> samples);

/// The pct-th percentile (0..100) by linear interpolation between order
/// statistics (the "inclusive" definition: percentile(_, 0) = min,
/// percentile(_, 100) = max). Returns 0 for an empty sample set.
double percentile(std::vector<double> samples, double pct);

}  // namespace gpa::benchutil
