#include "layers.h"

#include <algorithm>

#include "lsh/partitioner.h"
#include "lsh/tuning.h"
#include "probes.h"

namespace ddp::bench {
namespace {

struct PerLayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run prints, grouped by the module (layer)
// it measures.
constexpr PerLayerMetric kPerLayerMetrics[] = {
    {"ddp.choose_dc_s", "s"},
    {"ddp.compute_scores_s", "s"},
    {"ddp.peak_selection_s", "s"},
    {"ddp.assignment_s", "s"},
    {"ddp.unattributed_s", "s"},
    {"ddp.warmup_pipeline_s", "s"},
    {"mr.map_s", "s"},
    {"mr.shuffle_s", "s"},
    {"mr.reduce_s", "s"},
    {"mr.max_attempt_s", "s"},
    {"mr.straggler_ratio", "ratio"},
    {"mr.shuffle_records", "count"},
    {"mr.jobs", "count"},
    {"lsh.bucket_copies", "count"},
    {"lsh.max_group", "count"},
    {"lsh.hash_ns", "ns"},
    {"local_dp.rho_s", "s"},
    {"local_dp.delta_s", "s"},
    {"local_dp.cross_s", "s"},
    {"local_dp.groups", "count"},
    {"local_dp.distance_evals", "count"},
    {"local_dp.ns_per_eval", "ns"},
    {"spill.write_s", "s"},
    {"spill.bytes", "bytes"},
    {"spill.files", "count"},
    {"spill.merge_passes", "count"},
    {"spill.bytes_per_file", "bytes"},
    {"spill.write_mb_per_s", "MB/s"},
    {"spill.read_mb_per_s", "MB/s"},
    {"channel.streamed_bytes", "bytes"},
    {"channel.runs_shipped", "count"},
    {"channel.run_ship_p50_ms", "ms"},
    {"channel.frame_us_4k", "us"},
    {"channel.frame_us_1m", "us"},
    {"channel.crc32_mb_per_s", "MB/s"},
    {"supervisor.phase_s", "s"},
    {"supervisor.workers_registered", "count"},
    {"supervisor.worker_restarts", "count"},
    {"supervisor.exec_fallbacks", "count"},
    {"supervisor.worker_peak_rss_mb", "MiB"},
    {"dataset.load_s", "s"},
    {"dataset.bytes", "bytes"},
    {"server.queue_wait_p50_ms", "ms"},
    {"server.job_p50_ms", "ms"},
    {"server.job_p95_ms", "ms"},
    {"server.outside_job_p50_ms", "ms"},
    {"server.hit_job_p50_ms", "ms"},
    {"server.cold_job_p95_ms", "ms"},
    {"server.result_cache_hit_ratio", "ratio"},
    {"server.dataset_cache_hit_ratio", "ratio"},
    {"server.jobs_rejected", "count"},
    {"trace_overhead_frac", "ratio"},
};

constexpr size_t kProbeGroups = 8;

}  // namespace

void InitLayerMetrics(Report* report) {
  for (const PerLayerMetric& m : kPerLayerMetrics) {
    report->Set(m.name, 0.0, m.unit);
  }
}

std::map<std::string, SpanTotal> SummarizeSpans(
    const std::vector<obs::TraceEvent>& events) {
  // Per thread, walk spans in start order (longest first on ties) with a
  // stack of open ancestors; each span's duration is charged to its
  // innermost enclosing span as covered child time.
  std::map<uint32_t, std::vector<const obs::TraceEvent*>> by_thread;
  for (const obs::TraceEvent& e : events) by_thread[e.tid].push_back(&e);
  std::map<std::string, SpanTotal> totals;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                if (a->start_us != b->start_us) return a->start_us < b->start_us;
                return a->duration_us > b->duration_us;
              });
    std::vector<uint64_t> covered(spans.size(), 0);
    std::vector<size_t> open;
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t start = spans[i]->start_us;
      const uint64_t end = start + spans[i]->duration_us;
      while (!open.empty()) {
        const obs::TraceEvent* top = spans[open.back()];
        if (start < top->start_us + top->duration_us) break;
        open.pop_back();
      }
      if (!open.empty()) {
        const obs::TraceEvent* top = spans[open.back()];
        if (end <= top->start_us + top->duration_us) {
          covered[open.back()] += spans[i]->duration_us;
        }
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotal& t = totals[std::string(spans[i]->category) + "/" +
                            spans[i]->name];
      const uint64_t dur = spans[i]->duration_us;
      t.seconds += static_cast<double>(dur) * 1e-6;
      t.self_seconds +=
          static_cast<double>(dur - std::min(dur, covered[i])) * 1e-6;
      ++t.count;
    }
  }
  return totals;
}

void ReportSpans(const std::vector<obs::TraceEvent>& events, double pipelines,
                 const std::string& pipeline_name, Report* report) {
  if (pipelines <= 0) return;
  const auto spans = SummarizeSpans(events);
  auto per_pipeline = [&](const std::string& key, bool self) {
    auto it = spans.find(key);
    if (it == spans.end()) return 0.0;
    return (self ? it->second.self_seconds : it->second.seconds) / pipelines;
  };
  double attributed = 0.0;
  for (const char* stage : {"choose_dc", "compute_scores", "peak_selection",
                            "assignment"}) {
    const double s = per_pipeline(std::string("pipeline/") + stage, true);
    report->Set(std::string("ddp.") + stage + "_s", s, "s");
    attributed += s;
  }
  for (const char* phase : {"map", "shuffle", "reduce"}) {
    const double s = per_pipeline(std::string("mr/") + phase + "_phase", false);
    report->Set(std::string("mr.") + phase + "_s", s, "s");
    attributed += s;
  }
  report->Set("ddp.unattributed_s",
              per_pipeline("pipeline/" + pipeline_name, false) - attributed,
              "s");
  report->Set("local_dp.rho_s", per_pipeline("local_dp/rho", true), "s");
  report->Set("local_dp.delta_s", per_pipeline("local_dp/delta", true), "s");
  report->Set("local_dp.cross_s",
              per_pipeline("local_dp/rho_cross", true) +
                  per_pipeline("local_dp/delta_cross", true) +
                  per_pipeline("local_dp/delta_cross_sym", true),
              "s");
  report->Set("supervisor.phase_s", per_pipeline("mr/supervised_phase", false),
              "s");
}

void ReportRunStats(const std::vector<const mr::RunStats*>& runs,
                    Report* report) {
  if (runs.empty()) return;
  const double n = static_cast<double>(runs.size());
  std::vector<double> max_attempt;
  std::vector<double> straggler;
  double records = 0, jobs = 0, copies = 0, max_group = 0, spill_s = 0,
         spill_bytes = 0, spill_files = 0, merges = 0, streamed = 0,
         registered = 0, restarts = 0, fallbacks = 0;
  for (const mr::RunStats* s : runs) {
    double run_max = 0.0;
    double run_straggler = 0.0;
    for (const mr::JobCounters& job : s->jobs) {
      run_max = std::max(run_max, job.max_attempt_seconds);
      run_straggler = std::max(run_straggler, job.straggler_ratio);
      spill_s += job.spill_seconds;
      if (job.job_name == "lsh-rho-local") {
        copies += static_cast<double>(job.map_output_records);
        // Bucket b counts groups of floor(log2(size)) == b.
        const auto& hist = job.group_size_log2_histogram;
        for (size_t b = 0; b < hist.size(); ++b) {
          if (hist[b] > 0) {
            max_group =
                std::max(max_group, static_cast<double>(uint64_t{1} << b));
          }
        }
      }
    }
    max_attempt.push_back(run_max);
    straggler.push_back(run_straggler);
    records += static_cast<double>(s->TotalShuffleRecords());
    jobs += static_cast<double>(s->jobs.size());
    spill_bytes += static_cast<double>(s->TotalSpilledBytes());
    spill_files += static_cast<double>(s->TotalSpillFiles());
    merges += static_cast<double>(s->TotalMergePasses());
    streamed += static_cast<double>(s->TotalShuffleStreamedBytes());
    registered += static_cast<double>(s->TotalWorkersRegistered());
    restarts += static_cast<double>(s->TotalWorkerRestarts());
    fallbacks += static_cast<double>(s->TotalExecFallbacks());
  }
  report->Set("mr.max_attempt_s", Median(max_attempt), "s");
  report->Set("mr.straggler_ratio", Median(straggler), "ratio");
  report->Set("mr.shuffle_records", records / n, "count");
  report->Set("mr.jobs", jobs / n, "count");
  report->Set("lsh.bucket_copies", copies / n, "count");
  report->Set("lsh.max_group", max_group, "count");
  report->Set("spill.write_s", spill_s / n, "s");
  report->Set("spill.bytes", spill_bytes / n, "bytes");
  report->Set("spill.files", spill_files / n, "count");
  report->Set("spill.merge_passes", merges / n, "count");
  report->Set("spill.bytes_per_file",
              spill_files > 0 ? spill_bytes / spill_files : 0.0, "bytes");
  report->Set("channel.streamed_bytes", streamed / n, "bytes");
  report->Set("supervisor.workers_registered", registered / n, "count");
  report->Set("supervisor.worker_restarts", restarts, "count");
  report->Set("supervisor.exec_fallbacks", fallbacks, "count");
}

void ReportLshProbes(const Dataset& dataset, const LshDdp::Params& params,
                     double dc, Report* report) {
  Result<double> width = lsh::SolveMinimalWidth(
      params.accuracy, params.lsh.num_layouts, params.lsh.pi, dc);
  if (!width.ok()) return;
  Result<lsh::MultiLshPartitioner> partitioner =
      lsh::MultiLshPartitioner::Create(dataset.dim(), params.lsh.num_layouts,
                                       params.lsh.pi, *width, params.seed);
  if (!partitioner.ok()) return;
  report->Set("lsh.hash_ns", ProbeHashNs(*partitioner, dataset), "ns");
  report->Set("local_dp.ns_per_eval",
              ProbeNsPerEval(dataset,
                             LargestBuckets(*partitioner, dataset,
                                            kProbeGroups),
                             dc),
              "ns");
}

}  // namespace ddp::bench
