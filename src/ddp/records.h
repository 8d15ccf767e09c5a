#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "dataset/dataset.h"

/// \file records.h
/// Intermediate record types shared by the distributed DP jobs, with Serde
/// implementations so the MapReduce shuffle can account their real encoded
/// size. Coordinates dominate these records, exactly as in the paper's
/// shuffle-cost model (Eq. (6): |S| terms).

namespace ddp {
namespace ddprec {

/// A point in flight: id + coordinates.
struct PointRecord {
  PointId id = 0;
  std::vector<double> coords;

  void SerializeTo(BufferWriter* w) const {
    w->PutVarint32(id);
    w->PutDoubles(coords);
  }
  static Status DeserializeFrom(BufferReader* r, PointRecord* out) {
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->id));
    return r->GetDoubles(&out->coords);
  }
  bool operator==(const PointRecord&) const = default;
};

/// A point in flight carrying its (approximate) density.
struct ScoredPointRecord {
  PointId id = 0;
  uint32_t rho = 0;
  std::vector<double> coords;

  void SerializeTo(BufferWriter* w) const {
    w->PutVarint32(id);
    w->PutVarint32(rho);
    w->PutDoubles(coords);
  }
  static Status DeserializeFrom(BufferReader* r, ScoredPointRecord* out) {
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->id));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->rho));
    return r->GetDoubles(&out->coords);
  }
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

  void SerializeTo(BufferWriter* w) const {
    w->PutDouble(delta_sq);
    w->PutVarint32(upslope);
  }
  static Status DeserializeFrom(BufferReader* r, DeltaCandidate* out) {
    DDP_RETURN_NOT_OK(r->GetDouble(&out->delta_sq));
    return r->GetVarint32(&out->upslope);
  }
  bool operator==(const DeltaCandidate&) const = default;

  /// True if this candidate beats `other` (smaller squared delta; ties by
  /// upslope id for determinism).
  bool BetterThan(const DeltaCandidate& other) const {
    if (delta_sq != other.delta_sq) return delta_sq < other.delta_sq;
    return upslope < other.upslope;
  }
};

}  // namespace ddprec
}  // namespace ddp

