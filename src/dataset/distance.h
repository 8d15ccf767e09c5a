#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>

/// \file distance.h
/// Euclidean distance plus the process-wide evaluation counter that backs the
/// paper's "# distance measurements" cost axis (Fig. 10(c), Table IV).
///
/// All algorithm code reports distance evaluations through `CountingMetric`
/// so that the benchmark harness can report exact evaluation counts. The
/// counter is a relaxed atomic. `Distance`/`SquaredDistance` add one per call,
/// which suits cold paths; the hot kernels (`LocalDpEngine`, `KdTree`) compute
/// with `SquaredEuclidean`, count evaluations from their loop trip counts, and
/// add them once per call (per query for the k-d tree) via
/// `CountingMetric::AddEvaluations`.

namespace ddp {

/// Squared Euclidean distance (no counting).
inline double SquaredEuclidean(std::span<const double> a,
                               std::span<const double> b) {
  double s = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

/// Euclidean distance (no counting).
inline double Euclidean(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(SquaredEuclidean(a, b));
}

/// Counter shared by all jobs of one algorithm run.
class DistanceCounter {
 public:
  void Add(uint64_t n = 1) { count_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return count_.load(std::memory_order_relaxed); }
  void Reset() { count_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

/// Euclidean metric that reports every evaluation to a DistanceCounter.
/// The counter must outlive the metric; a null counter disables counting.
class CountingMetric {
 public:
  explicit CountingMetric(DistanceCounter* counter = nullptr)
      : counter_(counter) {}

  double Distance(std::span<const double> a, std::span<const double> b) const {
    if (counter_ != nullptr) counter_->Add();
    return Euclidean(a, b);
  }

  double SquaredDistance(std::span<const double> a,
                         std::span<const double> b) const {
    if (counter_ != nullptr) counter_->Add();
    return SquaredEuclidean(a, b);
  }

  /// Records `n` evaluations done outside Distance() (batched inner loops).
  void AddEvaluations(uint64_t n) const {
    if (counter_ != nullptr) counter_->Add(n);
  }

  DistanceCounter* counter() const { return counter_; }

 private:
  DistanceCounter* counter_;
};

}  // namespace ddp

