#include "ddp/remote_jobs.h"

#include <memory>
#include <utility>

#include "ddp/basic_ddp_jobs.h"
#include "ddp/eddpc_jobs.h"
#include "ddp/lsh_ddp_jobs.h"
#include "ddp/pipeline_jobs.h"
#include "mapreduce/remote_job.h"

namespace ddp {

namespace {

// Registers a Make function that takes a decoded ctx. `DecodeNew` rejects
// malformed/trailing bytes, so a version-skewed supervisor fails the job
// setup instead of silently computing on garbage.
template <typename Ctx, typename MakeFn>
void RegisterCtxJob(const std::string& id, MakeFn make) {
  mr::RegisterRemoteJob(
      id, [make](const mr::JobSetupMsg& setup)
              -> Result<decltype(make(std::shared_ptr<const Ctx>()))> {
        DDP_ASSIGN_OR_RETURN(std::shared_ptr<const Ctx> ctx,
                             Ctx::DecodeNew(setup.ctx));
        return make(std::move(ctx));
      });
}

// Registers a Make function with no ctx (the pure aggregation jobs).
template <typename MakeFn>
void RegisterPlainJob(const std::string& id, MakeFn make) {
  mr::RegisterRemoteJob(
      id, [make](const mr::JobSetupMsg&) -> Result<decltype(make())> {
        return make();
      });
}

}  // namespace

void RegisterAllRemoteJobs() {
  // LSH-DDP (Sec. IV).
  RegisterCtxJob<lshjobs::LshJobsCtx>("lsh-rho-local",
                                      &lshjobs::MakeLshRhoLocalJob);
  RegisterPlainJob("lsh-rho-aggregate", &lshjobs::MakeLshRhoAggregateJob);
  RegisterCtxJob<lshjobs::LshJobsCtx>("lsh-delta-local",
                                      &lshjobs::MakeLshDeltaLocalJob);
  RegisterPlainJob("lsh-delta-aggregate", &lshjobs::MakeLshDeltaAggregateJob);

  // Basic-DDP (Sec. III).
  RegisterCtxJob<basicjobs::BasicJobsCtx>("basic-rho-local",
                                          &basicjobs::MakeBasicRhoLocalJob);
  RegisterPlainJob("basic-rho-aggregate",
                   &basicjobs::MakeBasicRhoAggregateJob);
  RegisterCtxJob<basicjobs::BasicJobsCtx>("basic-delta-local",
                                          &basicjobs::MakeBasicDeltaLocalJob);
  RegisterPlainJob("basic-delta-aggregate",
                   &basicjobs::MakeBasicDeltaAggregateJob);

  // EDDPC (Table IV comparator).
  RegisterCtxJob<eddpcjobs::EddpcJobsCtx>("eddpc-rho",
                                          &eddpcjobs::MakeEddpcRhoJob);
  RegisterCtxJob<eddpcjobs::EddpcJobsCtx>("eddpc-delta-bound",
                                          &eddpcjobs::MakeEddpcDeltaBoundJob);
  RegisterCtxJob<eddpcjobs::EddpcJobsCtx>("eddpc-delta-refine",
                                          &eddpcjobs::MakeEddpcDeltaRefineJob);
  RegisterPlainJob("eddpc-delta-aggregate",
                   &eddpcjobs::MakeEddpcDeltaAggregateJob);

  // Pipeline kernels shared by every driver run. Round-suffixed job names
  // ("assign-jump-3") ride JobSetupMsg::job_name; the registry id stays the
  // stable prefix, so the round number only matters to the supervisor.
  RegisterCtxJob<pipejobs::ChooseDcCtx>("choose-dc",
                                        &pipejobs::MakeChooseDcJob);
  RegisterCtxJob<pipejobs::AssignJumpCtx>("assign-jump", [](auto ctx) {
    return pipejobs::MakeAssignJumpJob(std::move(ctx), 0);
  });
  RegisterCtxJob<pipejobs::KmeansIterCtx>("kmeans-iter", [](auto ctx) {
    return pipejobs::MakeKmeansIterJob(std::move(ctx), 0);
  });
}

}  // namespace ddp
