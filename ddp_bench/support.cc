#include "support.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "core/local_dp.h"
#include "eval/tau.h"
#include "obs/proc_stats.h"

namespace ddp::bench {

size_t ScaledPoints(const RunConfig& config, size_t points) {
  const double scaled = static_cast<double>(points) * config.scale;
  return std::max<size_t>(400, static_cast<size_t>(scaled));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) order_.push_back(name);
  it->second.value = value;
  it->second.unit = unit;
}

double Report::value(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.value;
}

const std::string& Report::unit(const std::string& name) const {
  static const std::string kNone;
  auto it = entries_.find(name);
  return it == entries_.end() ? kNone : it->second.unit;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok && problems.size() < kMaxProblems) problems.push_back(what);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double SampledTau2(const Dataset& dataset, std::span<const uint32_t> rho,
                   double dc, size_t sample, uint64_t seed) {
  std::vector<PointId> ids;
  if (sample >= dataset.size()) {
    ids.resize(dataset.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);
  } else {
    Rng rng(seed);
    for (size_t i : SampleWithoutReplacement(dataset.size(), sample, &rng)) {
      ids.push_back(static_cast<PointId>(i));
    }
    std::sort(ids.begin(), ids.end());
  }
  LocalDpEngineOptions options;
  options.backend = LocalDpBackend::kBruteForce;
  const LocalDpEngine engine(options);
  std::vector<uint32_t> exact(ids.size(), 0);
  CountingMetric metric;
  engine.RhoCross(LocalPointView::SubsetOf(dataset, ids),
                  LocalPointView::AllOf(dataset), dc, metric, exact, {});
  std::vector<uint32_t> approx(ids.size(), 0);
  for (size_t k = 0; k < ids.size(); ++k) {
    exact[k] -= 1;  // the point itself lies within d_c of itself
    approx[k] = rho[ids[k]];
  }
  Result<double> tau2 = eval::Tau2(approx, exact);
  return tau2.ok() ? *tau2 : 0.0;
}

double PeakRssMiB() {
  return static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

}  // namespace ddp::bench
