#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/counters.h"
#include "obs/trace.h"
#include "support.h"

/// \file layers.h
/// The per-layer metrics of a traced run (README.md, "Per-layer metrics"),
/// derived the same way for every workload from spans (T), runtime counters
/// (R), and unit-cost probes (P).

namespace ddp::bench {

/// Sets every per-layer metric to 0 with its unit, so a traced run of any
/// workload prints the full set; layers that do no work in it keep 0.
void InitLayerMetrics(Report* report);

/// Totals of one span name ("category/name") over a trace.
struct SpanTotal {
  double seconds = 0.0;       // sum of durations
  double self_seconds = 0.0;  // minus the time same-thread children cover
  uint64_t count = 0;
};

/// Sums every span of `events` by "category/name". A span's children are the
/// spans of the same thread that lie inside its interval.
std::map<std::string, SpanTotal> SummarizeSpans(
    const std::vector<obs::TraceEvent>& events);

/// T metrics per pipeline from the spans of `pipelines` traced pipeline runs
/// whose top span is "pipeline/<pipeline_name>". On the thread that runs a
/// pipeline its wall time splits into stage self times (ddp.*), whole
/// MapReduce phases (mr.*), and the unattributed rest.
void ReportSpans(const std::vector<obs::TraceEvent>& events, double pipelines,
                 const std::string& pipeline_name, Report* report);

/// R metrics per pipeline from the runtime counters of pipeline runs.
void ReportRunStats(const std::vector<const mr::RunStats*>& runs,
                    Report* report);

/// P metrics of LSH hashing and of the local kernel over the largest LSH
/// buckets of `dataset`, under LSH-DDP `params` at cutoff `dc`.
void ReportLshProbes(const Dataset& dataset, const LshDdp::Params& params,
                     double dc, Report* report);

}  // namespace ddp::bench
