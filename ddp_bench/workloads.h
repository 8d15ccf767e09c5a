#pragma once

#include <cstddef>
#include <cstdint>

#include "mapreduce/mapreduce.h"
#include "support.h"

/// \file workloads.h
/// The benchmark's workloads. README.md gives the reason for each one.

namespace ddp::bench {

/// A batch workload: whole DDP pipelines (choose d_c, scores, top-k peaks,
/// assignment) over KDD-like inputs, one after another.
struct BatchSpec {
  enum class Algo { kLsh, kBasic };
  Algo algo = Algo::kLsh;
  mr::ExecMode mode = mr::ExecMode::kInProc;
  size_t points = 0;  // per input, before --scale
  /// Distinct inputs generated from the seed and run round-robin. Pipeline
  /// cost of LSH-DDP depends on the largest buckets of each input, so one
  /// input would make the seed, not the code, decide the reading.
  size_t inputs = 1;
  uint64_t memory_budget_bytes = 0;
};

Outcome RunBatch(const RunConfig& config, const BatchSpec& spec);

/// The serving workload: an in-process DdpServer under a closed loop of
/// clients, a quarter of whose jobs repeat an earlier job's exact key.
Outcome RunServe(const RunConfig& config);

}  // namespace ddp::bench
