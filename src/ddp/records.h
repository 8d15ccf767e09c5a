#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "core/dp_types.h"
#include "dataset/dataset.h"

/// \file records.h
/// Intermediate record types shared by the distributed DP jobs. Each names
/// its wire fields for Serde (common/serde.h), so the MapReduce shuffle can
/// account their real encoded size. Coordinates dominate these records,
/// exactly as in the paper's shuffle-cost model (Eq. (6): |S| terms).

namespace ddp {
namespace ddprec {

/// A point in flight: id + coordinates.
struct PointRecord {
  PointId id = 0;
  std::vector<double> coords;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.id, s.coords); }
  bool operator==(const PointRecord&) const = default;
};

/// A point in flight carrying its (approximate) density.
struct ScoredPointRecord {
  PointId id = 0;
  uint32_t rho = 0;
  std::vector<double> coords;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.id, s.rho, s.coords); }
  bool operator==(const ScoredPointRecord&) const = default;
};

/// A (delta, upslope) candidate produced by a local computation; aggregated
/// by min-delta. Candidates carry the SQUARED delta while in flight — the
/// LocalDpEngine's canonical comparison space — so min-aggregation across
/// reducers resolves distance ties exactly like the sequential oracle; the
/// driver takes one sqrt per point when assembling final scores.
struct DeltaCandidate {
  double delta_sq = 0.0;  // may be +infinity (local absolute peak)
  PointId upslope = kInvalidPointId;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.delta_sq, s.upslope); }
  bool operator==(const DeltaCandidate&) const = default;

  /// True if this candidate beats `other` (smaller squared delta; ties by
  /// upslope id for determinism).
  bool BetterThan(const DeltaCandidate& other) const {
    if (delta_sq != other.delta_sq) return delta_sq < other.delta_sq;
    return upslope < other.upslope;
  }
};

/// Fails unless `id` < `size`. A driver indexes arrays by the ids its jobs
/// return, and under --exec-mode remote those come from whatever dialed the
/// pool's listener, so each is checked before it indexes; `what` names the
/// field and `job` the job in the error.
inline Status CheckId(uint64_t id, size_t size, const char* what,
                      const std::string& job) {
  if (id < size) return Status::OK();
  return Status::IoError("job " + job + " returned " + what + " " +
                         std::to_string(id) + " of " + std::to_string(size));
}

/// Writes the (point, rho) output of a rho job into `rho`, one entry per
/// point. A point past `rho` fails naming `job`.
inline Status AssembleRho(std::span<const std::pair<PointId, uint32_t>> out,
                          const std::string& job, std::vector<uint32_t>* rho) {
  for (const auto& [id, value] : out) {
    DDP_RETURN_NOT_OK(CheckId(id, rho->size(), "point", job));
    (*rho)[id] = value;
  }
  return Status::OK();
}

/// Assembles the (point, candidate) output of a delta job into `scores`,
/// whose rho is already sized: delta takes its one sqrt per point as
/// delta_sq leaves the shuffled squared space, and the upslope is copied.
/// A point, or an upslope other than kInvalidPointId, past the scores fails
/// naming `job`.
inline Status AssembleDeltas(
    std::span<const std::pair<PointId, DeltaCandidate>> deltas,
    const std::string& job, DpScores* scores) {
  const size_t n = scores->size();
  for (const auto& [id, candidate] : deltas) {
    DDP_RETURN_NOT_OK(CheckId(id, n, "point", job));
    if (candidate.upslope != kInvalidPointId) {
      DDP_RETURN_NOT_OK(CheckId(candidate.upslope, n, "upslope", job));
    }
    // ddp-lint: allow(no-raw-sqrt) -- final assembly: one sqrt per point
    // when delta_sq leaves the shuffled squared-space representation.
    scores->delta[id] = std::sqrt(candidate.delta_sq);
    scores->upslope[id] = candidate.upslope;
  }
  return Status::OK();
}

}  // namespace ddprec
}  // namespace ddp

