#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
///   * Borrow pointers (`dataset`, `metric`, from DatasetCtx) name what the
///     closures read. On the driver side they point at driver-owned objects
///     and the owned storage stays empty; after DecodeNew they point at the
///     ctx's own `owned_*` members. Either way the ctx outlives the JobSpec
///     closures because they capture it by shared_ptr.
///   * The ctx names its wire fields once (`Fields`, common/serde.h), the
///     dataset as a DatasetField; Serde<Ctx>::Write is the blob a job's
///     `remote_ctx` hook (CtxWriter) writes. `DecodeNew` reads the fields
///     with DecodeFields, which rejects trailing bytes, then runs the steps
///     no field list can say: enum range checks that name the field,
///     rebuilding derived objects, and pointing the borrows at owned
///     storage. Workers count no distance evaluations, matching fork mode,
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

/// What the closures of a ctx over a dataset read: borrowed from the
/// driver, or owned once decoded (the metric with a null counter: workers
/// count no distance evaluations).
struct DatasetCtx {
  const Dataset* dataset = nullptr;
  const CountingMetric* metric = nullptr;

  std::optional<Dataset> owned_dataset;
  CountingMetric owned_metric;

  /// Points the borrows at the owned storage of a decoded ctx.
  void UseOwned() {
    dataset = &*owned_dataset;
    metric = &owned_metric;
  }
};

/// The dataset in a DatasetCtx's field list: written from the borrow by
/// EncodeDataset, read into the owned storage by DecodeDataset.
template <typename Ctx>
struct DatasetField {
  explicit DatasetField(Ctx& c) : ctx(c) {}
  Ctx& ctx;
};

/// Checks a decoded enum whose values run from 0 to `last`. A blob reaches
/// a remote worker over the pool's TCP listener, so a byte past `last` is an
/// error naming `field`, never a value the enum does not have.
template <typename Enum>
Status CheckEnum(Enum value, Enum last, const char* field) {
  if (static_cast<int>(value) > static_cast<int>(last)) {
    return Status::IoError(std::string(field) + " byte " +
                           std::to_string(static_cast<int>(value)) +
                           " is out of range");
  }
  return Status::OK();
}

/// The `remote_ctx` hook of a job that ships `ctx`.
template <typename Ctx>
std::function<void(BufferWriter*)> CtxWriter(std::shared_ptr<const Ctx> ctx) {
  return [ctx](BufferWriter* w) { Serde<Ctx>::Write(w, *ctx); };
}

/// Reads a ctx's wire fields from `blob` into a new ctx, rejecting trailing
/// bytes; `what` names the ctx in the error.
template <typename Ctx>
Result<std::shared_ptr<Ctx>> DecodeFields(const std::string& blob,
                                          const char* what) {
  auto ctx = std::make_shared<Ctx>();
  BufferReader r(blob);
  DDP_RETURN_NOT_OK(Serde<Ctx>::Read(&r, ctx.get()));
  if (!r.exhausted()) {
    return Status::IoError(std::string(what) + " ctx has trailing bytes");
  }
  return ctx;
}

}  // namespace jobctx

template <typename Ctx>
struct Serde<jobctx::DatasetField<Ctx>> {
  static void Write(BufferWriter* w, const jobctx::DatasetField<Ctx>& f) {
    jobctx::EncodeDataset(w, *f.ctx.dataset);
  }
  static Status Read(BufferReader* r, jobctx::DatasetField<Ctx>* f) {
    DDP_ASSIGN_OR_RETURN(Dataset dataset, jobctx::DecodeDataset(r));
    f->ctx.owned_dataset.emplace(std::move(dataset));
    return Status::OK();
  }
};

}  // namespace ddp
