#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dataset/dataset.h"

/// \file support.h
/// Pieces every ddp_bench workload shares: the run configuration, the metric
/// report a run prints, sample statistics, and the sampled rho-accuracy
/// check.

namespace ddp::bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  /// Length of the measured window. A traced run splits it into an untraced
  /// and a traced half.
  double seconds = 0.0;
  bool trace = false;
  /// Multiplies every input's point count (smoke runs use 0.05).
  double scale = 1.0;
  /// Every file the run writes (inputs, spill files, server state) lives
  /// under this directory.
  std::string work_dir;
  /// The ddp_worker binary the remote workload execs.
  std::string worker_bin;
};

/// Input size after scaling. Floored at 400 points: the MapReduce runtime's
/// map-task splitter reads past the end of job inputs of 17 to 239 records
/// at 4 workers, and every job of a pipeline sees at least the point count.
size_t ScaledPoints(const RunConfig& config, size_t points);

/// Named metrics with units, in insertion order of first Set.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::string>& names() const { return order_; }
  double value(const std::string& name) const;
  const std::string& unit(const std::string& name) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

/// What one workload run produced: operations attempted and failed, the
/// checks that did not hold, and the metrics to print.
struct Outcome {
  static constexpr size_t kMaxProblems = 16;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  Report metrics;

  /// Records `what` as a failed check unless `ok`. Only the first
  /// kMaxProblems are kept: one broken layer can fail every operation.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && problems.empty(); }
};

double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// The paper's tau2 accuracy of `rho` on `sample` points drawn (seeded) from
/// `dataset`, against their exact cutoff density over the whole set.
/// `sample` >= the dataset's size uses every point.
double SampledTau2(const Dataset& dataset, std::span<const uint32_t> rho,
                   double dc, size_t sample, uint64_t seed);

/// Peak resident set size of this process in MiB.
double PeakRssMiB();

}  // namespace ddp::bench
