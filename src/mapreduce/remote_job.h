#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/mapreduce.h"
#include "mapreduce/remote_worker.h"

/// \file remote_job.h
/// Bridges a typed JobSpec to the JobRegistry a ddp_worker serves from:
/// `MakeRegisteredRunner` decodes each kTaskAssign input into the shape
/// internal::ExecuteMapTask / ExecuteSortedReduceTask expect and runs the
/// attempt through internal::RunWorkerAttempt — the compiled attempt
/// wrapper forked workers run too (phase.h), so remote attempts roll the
/// same chaos and retry hashes. `RegisterRemoteJob` is the one-liner
/// drivers use: register a factory that decodes the JobSetupMsg's context
/// blob back into a JobSpec and hands it here. Bit-identity with local
/// execution follows from the task bodies being the exact same functions
/// RunJob schedules.

namespace ddp {
namespace mr {

/// Builds the TaskRunner serving one installed job: phase 0 decodes a
/// by-value input slice and runs the map body, whose sorted runs stream
/// back to the supervisor; phase 1 decodes the partition's (is_run, frame
/// bytes) sources and merge-reduces them. Both decoders bound the declared
/// count by the bytes received (Serde<std::vector<T>>::Read). The spec is
/// shared, not copied, into the per-task closures.
template <typename In, typename MidK, typename MidV, typename Out>
JobRegistry::TaskRunner MakeRegisteredRunner(
    std::shared_ptr<const JobSpec<In, MidK, MidV, Out>> spec,
    const JobSetupMsg& setup) {
  internal::ChaosParams chaos;
  chaos.faults = setup.faults;
  chaos.failure_rate = setup.phase == 0 ? setup.faults.map_failure_rate
                                        : setup.faults.reduce_failure_rate;
  chaos.job_name = setup.job_name;
  chaos.phase = static_cast<int>(setup.phase);

  if (setup.phase == 0) {
    // Map: the spill dir is interpreted on THIS host (the worker spills
    // locally, then streams run bytes back over the channel).
    internal::MapTaskParams params;
    params.num_partitions = static_cast<size_t>(setup.num_partitions);
    params.memory_budget_bytes = setup.memory_budget_bytes;
    params.spill_dir = internal::ResolveSpillDir(setup.spill_dir);
    params.faults = setup.faults;
    return [spec, chaos, params](uint64_t task, uint64_t attempt,
                                 bool quarantined, const std::string& input,
                                 TaskResult* result) -> Status {
      std::vector<In> slice;
      BufferReader r(input);
      DDP_RETURN_NOT_OK(Serde<std::vector<In>>::Read(&r, &slice));
      if (!r.exhausted()) {
        return Status::IoError("map task input has trailing bytes");
      }
      auto body = [&](size_t t, CancelToken* cancel, internal::TaskSlot* out) {
        return internal::ExecuteMapTask(
            *spec, std::span<const In>(slice), t, params, cancel,
            static_cast<internal::MapTaskOutput*>(out));
      };
      internal::MapTaskOutput out;
      return internal::RunWorkerAttempt(
          chaos, static_cast<size_t>(task), static_cast<size_t>(attempt),
          quarantined, body, internal::MapSlotCodec(params.num_partitions),
          &out, result);
    };
  }

  // Reduce: only reachable for Serde-crossable outputs (RunJob refuses a
  // remote or forked job whose output has no Serde), but a runner must
  // exist for every registered job.
  if constexpr (!has_serde_v<Out>) {
    return [](uint64_t, uint64_t, bool, const std::string&,
              TaskResult*) -> Status {
      return Status::Internal(
          "reduce phase assigned for a job whose output type has no serde");
    };
  } else {
    const bool skip_bad = setup.skip_bad_records;
    return [spec, chaos, skip_bad](uint64_t task, uint64_t attempt,
                                   bool quarantined, const std::string& input,
                                   TaskResult* result) -> Status {
      // Decode this partition's (is_run, frame bytes) sources fully before
      // wiring readers over them: MemoryFrameReader borrows the strings.
      std::vector<std::pair<uint8_t, std::string>> sources;
      BufferReader r(input);
      DDP_RETURN_NOT_OK(Serde<decltype(sources)>::Read(&r, &sources));
      if (!r.exhausted()) {
        return Status::IoError("reduce task input has trailing bytes");
      }
      bool any_run = false;
      for (const auto& source : sources) any_run |= source.first != 0;
      auto body = [&](size_t p, CancelToken* cancel, internal::TaskSlot* out) {
        std::vector<std::unique_ptr<FrameStream>> streams;
        streams.reserve(sources.size());
        for (const auto& source : sources) {
          streams.push_back(std::make_unique<MemoryFrameReader>(source.second));
        }
        return internal::ExecuteSortedReduceTask(
            *spec, p, std::move(streams), any_run, skip_bad, cancel,
            static_cast<internal::ReduceTaskOutput<Out>*>(out));
      };
      internal::ReduceTaskOutput<Out> out;
      return internal::RunWorkerAttempt(
          chaos, static_cast<size_t>(task), static_cast<size_t>(attempt),
          quarantined, body, internal::ReduceSlotCodec<Out>(), &out, result);
    };
  }
}

/// Registers `make_spec` — a `Result<JobSpec<...>>(const JobSetupMsg&)`
/// that decodes the setup's context blob — under `id` in the global
/// JobRegistry. The id must match the JobSpec::remote_task_id the
/// supervisor side sets (stable across rounds: round-suffixed job *names*
/// ride JobSetupMsg::job_name, not the registry id).
template <typename MakeSpec>
void RegisterRemoteJob(const std::string& id, MakeSpec make_spec) {
  JobRegistry::Global().Register(
      id,
      [make_spec](const JobSetupMsg& setup)
          -> Result<JobRegistry::TaskRunner> {
        DDP_ASSIGN_OR_RETURN(auto built, make_spec(setup));
        auto spec = std::make_shared<std::add_const_t<decltype(built)>>(
            std::move(built));
        return MakeRegisteredRunner(std::move(spec), setup);
      });
}

}  // namespace mr
}  // namespace ddp
