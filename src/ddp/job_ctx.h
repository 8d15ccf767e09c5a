#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"

/// \file job_ctx.h
/// Shared encode/decode helpers for driver job contexts. Each DDP job
/// family ships a self-contained ctx blob in JobSetupMsg::ctx so an exec'd
/// ddp_worker can rebuild the job's closures by name (see
/// mapreduce/remote_job.h). The dataset dominates every ctx, so its wire
/// form lives here: dim + the raw row-major values (labels are never needed
/// by a job body).
///
/// Convention used by every ctx struct in the *_jobs.h headers:
///   * Borrow pointers (`dataset`, `metric`) name what the closures read.
///     On the driver side they point at driver-owned objects and the owned
///     storage stays empty; after DecodeNew they point at the ctx's own
///     `owned_*` members. Either way the ctx outlives the JobSpec closures
///     because they capture it by shared_ptr.
///   * `EncodeTo` writes the full blob; `DecodeNew` rebuilds an owned ctx
///     and rejects trailing bytes. Workers count no distance evaluations
///     (the owned CountingMetric has a null counter), matching fork mode,
///     where child-process counters are equally invisible to the driver.

namespace ddp {
namespace jobctx {

inline void EncodeDataset(BufferWriter* w, const Dataset& d) {
  w->PutVarint64(d.dim());
  w->PutDoubles(d.values());
}

inline Result<Dataset> DecodeDataset(BufferReader* r) {
  uint64_t dim = 0;
  DDP_RETURN_NOT_OK(r->GetVarint64(&dim));
  if (dim == 0) return Status::IoError("ctx dataset has dim 0");
  std::vector<double> values;
  DDP_RETURN_NOT_OK(r->GetDoubles(&values));
  return Dataset::FromValues(static_cast<size_t>(dim), std::move(values));
}

/// The value of a decoded byte of an enum whose values run from 0 to
/// `last`. A blob reaches a remote worker over the pool's TCP listener, so a
/// byte past `last` is an error naming `field`, never a cast to a value the
/// enum does not have.
template <typename Enum>
Result<Enum> EnumFromByte(uint8_t byte, Enum last, const char* field) {
  if (byte > static_cast<uint8_t>(last)) {
    return Status::IoError(std::string(field) + " byte " +
                           std::to_string(byte) + " is out of range");
  }
  return static_cast<Enum>(byte);
}

inline Status ExpectExhausted(const BufferReader& r, const char* what) {
  if (!r.exhausted()) {
    return Status::IoError(std::string(what) + " ctx has trailing bytes");
  }
  return Status::OK();
}

}  // namespace jobctx
}  // namespace ddp
