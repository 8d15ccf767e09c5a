#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "dataset/dataset.h"
#include "ddp/basic_ddp_jobs.h"
#include "ddp/eddpc_jobs.h"
#include "ddp/lsh_ddp_jobs.h"
#include "ddp/pipeline_jobs.h"
#include "ddp/records.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/phase.h"
#include "mapreduce/remote_job.h"
#include "mapreduce/supervisor.h"
#include "server/protocol.h"

// Golden bytes of every wire format the runtime writes: the channel and
// serving messages, the shuffle and output records, the map slot codec, the
// driver contexts, a remote map input and a checkpointed result. Shuffle
// byte counts, checkpoints, cached results and the wire between versions
// all depend on these bytes, so each is pinned as hex. Every varint and
// byte field holds a value of at least 128 and every signed field a
// negative value, so a multi-byte varint, a raw byte or a zig-zag that
// changed shape shows here. Each pin is also decoded and re-encoded.

namespace ddp {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

template <typename T>
std::string RecordBytes(const T& v) {
  BufferWriter w;
  Serde<T>::Write(&w, v);
  return w.Release();
}

// Encodes `v`, pins the bytes, then decodes them and encodes again.
template <typename T>
void ExpectRecord(const T& v, const std::string& hex) {
  const std::string bytes = RecordBytes(v);
  EXPECT_EQ(Hex(bytes), hex);
  BufferReader r(bytes);
  T back;
  ASSERT_TRUE(Serde<T>::Read(&r, &back).ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(Hex(RecordBytes(back)), hex);
}

template <typename Msg>
void ExpectMessage(const Msg& msg, const std::string& hex) {
  const std::string bytes = msg.Encode();
  EXPECT_EQ(Hex(bytes), hex);
  Msg back;
  ASSERT_TRUE(Msg::Decode(bytes, &back).ok());
  EXPECT_EQ(Hex(back.Encode()), hex);
}

// A context is encoded by the hook of the job it ships with, and decoded by
// the worker-side factory.
template <typename Ctx, typename MakeJob>
void ExpectCtx(std::shared_ptr<const Ctx> ctx, MakeJob make_job,
               const std::string& hex) {
  BufferWriter w;
  make_job(ctx).remote_ctx(&w);
  EXPECT_EQ(Hex(w.data()), hex);
  auto back = Ctx::DecodeNew(w.data());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  BufferWriter again;
  make_job(*back).remote_ctx(&again);
  EXPECT_EQ(Hex(again.data()), hex);
}

// Dim 130, one point: both the dim and the value count are two-byte
// varints. Its encoding is kDatasetHex.
Dataset WideDataset() {
  std::vector<double> values(130);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 0.5 - 8.0;
  }
  return Dataset::FromValues(130, std::move(values)).ValueOrDie();
}

const std::string kDatasetHex =
    "8201820100000000000020c00000000000001ec00000000000001cc00000000000001ac0"
    "00000000000018c000000000000016c000000000000014c000000000000012c000000000"
    "000010c00000000000000cc000000000000008c000000000000004c000000000000000c0"
    "000000000000f8bf000000000000f0bf000000000000e0bf000000000000000000000000"
    "0000e03f000000000000f03f000000000000f83f00000000000000400000000000000440"
    "00000000000008400000000000000c400000000000001040000000000000124000000000"
    "00001440000000000000164000000000000018400000000000001a400000000000001c40"
    "0000000000001e4000000000000020400000000000002140000000000000224000000000"
    "000023400000000000002440000000000000254000000000000026400000000000002740"
    "000000000000284000000000000029400000000000002a400000000000002b4000000000"
    "00002c400000000000002d400000000000002e400000000000002f400000000000003040"
    "000000000080304000000000000031400000000000803140000000000000324000000000"
    "008032400000000000003340000000000080334000000000000034400000000000803440"
    "000000000000354000000000008035400000000000003640000000000080364000000000"
    "000037400000000000803740000000000000384000000000008038400000000000003940"
    "00000000008039400000000000003a400000000000803a400000000000003b4000000000"
    "00803b400000000000003c400000000000803c400000000000003d400000000000803d40"
    "0000000000003e400000000000803e400000000000003f400000000000803f4000000000"
    "00004040000000000040404000000000008040400000000000c040400000000000004140"
    "000000000040414000000000008041400000000000c04140000000000000424000000000"
    "0040424000000000008042400000000000c0424000000000000043400000000000404340"
    "00000000008043400000000000c043400000000000004440000000000040444000000000"
    "008044400000000000c04440000000000000454000000000004045400000000000804540"
    "0000000000c0454000000000000046400000000000404640000000000080464000000000"
    "00c046400000000000004740000000000040474000000000008047400000000000c04740"
    "0000000000004840000000000040484000000000008048400000000000c0484000000000"
    "00004940000000000040494000000000008049400000000000c049400000000000004a40"
    "0000000000404a400000000000804a400000000000c04a400000000000004b4000000000"
    "00404b400000000000804b400000000000c04b400000000000004c400000000000404c40";

const std::string kJobSetupHex =
    "0d6c73682d72686f2d6c6f63616c0d6c73682d72686f2d6c6f63616cc80105c800637478"
    "8201808004062f746d702f7301c8cfd409000000000000c03f000000000000d03f000000"
    "000000d83f0000000000002540000000000000b03f000000000000e03f000000000000e8"
    "3f000000000000ec3f000000000000ee3f";

const std::string kJobParamsHex =
    "056261736963000000000000d03f7b14ae47e17a943f8201000000000000f83f00000000"
    "00000440ae47e17a14aeef3f8c019601f403a001808004c8b960000000000000c03f0000"
    "00000000d03f000000000000d83f";

const std::string kJobSubmitHex =
    "56056261736963000000000000d03f7b14ae47e17a943f8201000000000000f83f000000"
    "0000000440ae47e17a14aeef3f8c019601f403a001808004c8b960000000000000c03f00"
    "0000000000d03f000000000000d83f0c2f646174612f782e64647062000000000000e03f";

const std::string kJobResultMsgHex =
    "ea07c9046e6f6e65ff23000000000000e03f82010501009003d704e0c508808080802000"
    "00000000000c408c01";

const std::string kBoundOrStatsHex =
    "01b102aa01b401000000000000f43f000000000000f93fffffffff0fbe01000000000000"
    "1e40d201";

const std::string kLshCtxHead =
    "000000000000e83f820181010000000000001040808080808020018c01960102";

const std::string kEddpcCtxHead =
    "000000000000e83f02010202000000000000f03f00000000000000400100000000000008"
    "c002000000000000e03f000000000000f83f0282010702c80100";

TEST(WireGoldenTest, ChannelMessages) {
  mr::ResultMsg result;
  result.task = 300;
  result.attempt = 129;
  result.status_code = -5;
  result.status_message = "boom";
  result.seconds = 1.5;
  result.payload = std::string("\x80\x01xyz", 5);
  ExpectMessage(result, "ac0281010904626f6f6d000000000000f83f05800178797a");

  mr::HelloMsg hello;
  hello.worker_id = 1000;
  ExpectMessage(hello, "e807");

  mr::JobSetupMsg setup;
  setup.job_id = "lsh-rho-local";
  setup.job_name = "lsh-rho-local";
  setup.phase = 200;
  setup.ctx = std::string("\xc8\x00" "ctx", 5);
  setup.num_partitions = 130;
  setup.memory_budget_bytes = 65536;
  setup.spill_dir = "/tmp/s";
  setup.skip_bad_records = true;
  setup.faults.map_failure_rate = 0.125;
  setup.faults.reduce_failure_rate = 0.25;
  setup.faults.straggler_rate = 0.375;
  setup.faults.straggler_slowdown = 10.5;
  setup.faults.straggler_min_seconds = 0.0625;
  setup.faults.corruption_rate = 0.5;
  setup.faults.worker_crash_rate = 0.75;
  setup.faults.poison_task_rate = 0.875;
  setup.faults.channel_drop_rate = 0.9375;
  setup.faults.seed = 20260808;
  ExpectMessage(setup, kJobSetupHex);

  mr::TaskAssignMsg assign;
  assign.task = 131;
  assign.attempt = 200;
  assign.quarantined = true;
  assign.window_bytes = 4194304;
  assign.input = std::string("\x01\x02\xff", 3);
  ExpectMessage(assign, "8301c8010180808002030102ff");

  mr::RunBeginMsg begin;
  begin.task = 140;
  begin.attempt = 150;
  begin.seq = 160;
  begin.partition = 170;
  begin.spill_index = mr::kTailRunIndex;
  begin.length = 70000;
  ExpectMessage(begin, "8c019601a001aa01ffffffff0ff0a204");

  mr::RunEndMsg end;
  end.task = 140;
  end.attempt = 150;
  end.seq = 160;
  ExpectMessage(end, "8c019601a001");

  mr::RunAckMsg ack;
  ack.task = 140;
  ack.attempt = 150;
  ack.acked_runs = 180;
  ack.acked_bytes = 1 << 20;
  ExpectMessage(ack, "8c019601b401808040");
}

server::JobParams Params() {
  server::JobParams params;
  params.algo = "basic";
  params.dc = 0.25;
  params.percentile = 0.02;
  params.k = 130;
  params.rho_min = 1.5;
  params.delta_min = 2.5;
  params.accuracy = 0.99;
  params.num_layouts = 140;
  params.pi = 150;
  params.block_size = 500;
  params.num_workers = 160;
  params.memory_budget_bytes = 65536;
  params.exec_mode = 200;
  params.seed = 12345;
  params.map_failure_rate = 0.125;
  params.reduce_failure_rate = 0.25;
  params.worker_crash_rate = 0.375;
  return params;
}

server::JobResultPayload ResultPayload() {
  server::JobResultPayload payload;
  payload.dc = 0.5;
  payload.num_clusters = 130;
  payload.assignment = {-1, 0, 200, -300, 70000};
  payload.distance_evaluations = uint64_t{1} << 33;
  payload.total_seconds = 3.5;
  payload.mr_jobs = 140;
  return payload;
}

TEST(WireGoldenTest, ServingMessages) {
  ExpectMessage(Params(), kJobParamsHex);

  server::JobSubmitMsg submit;
  submit.params = Params();
  submit.dataset_path = "/data/x.ddpb";
  submit.progress_seconds = 0.5;
  ExpectMessage(submit, kJobSubmitHex);

  server::JobPollMsg poll;
  poll.job_id = 1000;
  ExpectMessage(poll, "e807");

  server::JobCancelMsg cancel;
  cancel.job_id = server::kShutdownJobId;
  ExpectMessage(cancel, "ffffffffffffffffff01");

  server::JobStatusMsg status;
  status.job_id = 1001;
  status.state = 200;
  status.detail = "queued behind 3";
  status.queue_position = 300;
  status.mr_jobs_done = 400;
  status.running_seconds = 2.25;
  status.from_result_cache = 129;
  ExpectMessage(status,
      "e907c80f71756575656420626568696e642033ac029003000000000000024081");

  ExpectMessage(ResultPayload(),
      "000000000000e03f82010501009003d704e0c50880808080200000000000000c408c01");

  server::JobResultMsg result;
  result.job_id = 1002;
  result.state = 201;
  result.error = "none";
  result.from_result_cache = 255;
  result.payload = ResultPayload().Encode();
  ExpectMessage(result, kJobResultMsgHex);
}

ddprec::ScoredPointRecord Scored() { return {301, 129, {0.5}}; }

eddpcjobs::BoundInfo Bound() {
  eddpcjobs::BoundInfo bound;
  bound.id = 305;
  bound.rho = 170;
  bound.cell = 180;
  bound.delta_ub = 1.25;
  bound.delta_ub_sq = 1.5625;
  bound.upslope = kInvalidPointId;
  return bound;
}

TEST(WireGoldenTest, ShuffleAndOutputRecords) {
  ExpectRecord(ddprec::PointRecord{300, {1.5, -2.25}},
               "ac0202000000000000f83f00000000000002c0");
  ExpectRecord(Scored(), "ad02810101000000000000e03f");
  ExpectRecord(ddprec::DeltaCandidate{6.25, 400}, "00000000000019409003");
  ExpectRecord(ddprec::DeltaCandidate{std::numeric_limits<double>::infinity(),
                                      kInvalidPointId},
               "000000000000f07fffffffff0f");
  ExpectRecord(basicjobs::BlockedPoint{130, {302, 140, {3.0, 4.0}}},
               "8201ae028c010200000000000008400000000000001040");
  ExpectRecord(eddpcjobs::CellPoint{200, {303, {5.0}}},
               "c8af02010000000000001440");

  eddpcjobs::MemberOrQuery query;
  query.is_query = 200;
  query.id = 310;
  query.rho = 320;
  query.delta_ub_sq = 2.25;
  query.coords = {6.0, -7.0};
  ExpectRecord(query,
               "c8b602c00200000000000002400200000000000018400000000000001cc0");
  eddpcjobs::MemberOrQuery member = query;
  member.is_query = 0;
  member.delta_ub_sq = 0.0;
  ExpectRecord(member, "00b602c0020200000000000018400000000000001cc0");

  eddpcjobs::HomeInfo home;
  home.id = 304;
  home.rho = 150;
  home.cell = 160;
  ExpectRecord(home, "b0029601a001");

  ExpectRecord(Bound(),
               "b102aa01b401000000000000f43f000000000000f93fffffffff0f");

  eddpcjobs::BoundOrStats stats;
  stats.is_stats = true;
  stats.bound = Bound();
  stats.cell = 190;
  stats.radius = 7.5;
  stats.max_rho = 210;
  ExpectRecord(stats, kBoundOrStatsHex);

  pipejobs::JumpMessage jump;
  jump.kind = 200;
  jump.cluster = -130;
  jump.parent = 400;
  jump.asker = kInvalidPointId;
  ExpectRecord(jump, "c883029003ffffffff0f");

  pipejobs::JumpUpdate update;
  update.point = 500;
  update.cluster = -2;
  update.new_parent = 600;
  ExpectRecord(update, "f40303d804");

  pipejobs::CentroidPartial partial;
  partial.sum = {1.0, 2.0};
  partial.count = 300;
  ExpectRecord(partial, "ac0202000000000000f03f0000000000000040");

  // A checkpointed result: the reduce outputs of a job, as RunJob saves
  // them.
  ExpectRecord(std::vector<lshjobs::LshDeltaOut>{{700, {6.25, 400}},
                                                 {701, {0.0, 130}}},
               "02bc0500000000000019409003bd0500000000000000008201");
}

TEST(WireGoldenTest, MapSlotAndRemoteMapInput) {
  mr::internal::MapTaskOutput slot;
  slot.payload_bytes = {130, 0, 70000};
  slot.records = 300;
  slot.combine_in = 400;
  slot.spilled_bytes = 1 << 20;
  slot.spill_files = 130;
  slot.spill_seconds = 0.25;
  const mr::internal::SlotCodec codec = mr::internal::MapSlotCodec(3);
  BufferWriter w;
  codec.serialize(&w, slot);
  EXPECT_EQ(Hex(w.data()), "03820100f0a204ac0290038080408201000000000000d03f");
  mr::internal::MapTaskOutput back;
  BufferReader r(w.data());
  ASSERT_TRUE(codec.deserialize(&r, &back).ok());
  EXPECT_TRUE(r.exhausted());
  BufferWriter again;
  codec.serialize(&again, back);
  EXPECT_EQ(Hex(again.data()), Hex(w.data()));

  const std::vector<PointId> ids = {300, 5, kInvalidPointId};
  EXPECT_EQ(Hex(mr::internal::EncodeMapSlice(std::span<const PointId>(ids))),
            "03ac0205ffffffff0f");
  eddpcjobs::HomeInfo home;
  home.id = 304;
  home.rho = 150;
  home.cell = 160;
  const std::vector<eddpcjobs::HomeInfo> homes = {home};
  EXPECT_EQ(Hex(mr::internal::EncodeMapSlice(
                std::span<const eddpcjobs::HomeInfo>(homes))),
            "01b0029601a001");
}

TEST(WireGoldenTest, DriverContexts) {
  const Dataset dataset = WideDataset();
  {
    BufferWriter w;
    jobctx::EncodeDataset(&w, dataset);
    EXPECT_EQ(Hex(w.data()), kDatasetHex);
  }

  auto lsh = std::make_shared<lshjobs::LshJobsCtx>();
  lsh->dc = 0.75;
  lsh->num_layouts = 130;
  lsh->pi = 129;
  lsh->width = 4.0;
  lsh->lsh_seed = uint64_t{1} << 40;
  lsh->kernel = DensityKernel::kGaussian;
  lsh->probes = 140;
  lsh->max_bucket = 150;
  lsh->backend = LocalDpBackend::kKdTree;
  lsh->rho_hat = {200};
  lsh->dataset = &dataset;
  ExpectCtx<lshjobs::LshJobsCtx>(
      lsh, [](auto ctx) { return lshjobs::MakeLshDeltaLocalJob(ctx); },
      kLshCtxHead + kDatasetHex + "01c801");

  auto basic = std::make_shared<basicjobs::BasicJobsCtx>();
  basic->dc = 0.75;
  basic->num_blocks = 130;
  basic->backend = LocalDpBackend::kBruteForce;
  basic->rho = {200, 7};
  basic->dataset = &dataset;
  ExpectCtx<basicjobs::BasicJobsCtx>(
      basic, [](auto ctx) { return basicjobs::MakeBasicDeltaLocalJob(ctx); },
      "000000000000e83f820101" + kDatasetHex + "02c80107");

  auto eddpc = std::make_shared<eddpcjobs::EddpcJobsCtx>();
  eddpc->dc = 0.75;
  eddpc->backend = LocalDpBackend::kKdTree;
  eddpc->use_max_rho_filter = true;
  eddpc->pivots = {{1.0, 2.0}, {-3.0}};
  eddpc->cell_radius = {0.5, 1.5};
  eddpc->cell_max_rho = {130, 7};
  eddpc->cell_nonempty = {200, 0};
  eddpc->dataset = &dataset;
  ExpectCtx<eddpcjobs::EddpcJobsCtx>(
      eddpc, [](auto ctx) { return eddpcjobs::MakeEddpcDeltaRefineJob(ctx); },
      kEddpcCtxHead + kDatasetHex);

  auto choose = std::make_shared<pipejobs::ChooseDcCtx>();
  choose->rate = 0.125;
  choose->seed = 130;
  choose->percentile = 0.02;
  choose->dataset = &dataset;
  ExpectCtx<pipejobs::ChooseDcCtx>(
      choose, [](auto ctx) { return pipejobs::MakeChooseDcJob(ctx); },
      "000000000000c03f82017b14ae47e17a943f" + kDatasetHex);

  const std::vector<int> assignment = {-1, 200, -300};
  const std::vector<PointId> parent = {kInvalidPointId, 130, 0};
  auto jump = std::make_shared<pipejobs::AssignJumpCtx>();
  jump->assignment = &assignment;
  jump->parent = &parent;
  ExpectCtx<pipejobs::AssignJumpCtx>(
      jump, [](auto ctx) { return pipejobs::MakeAssignJumpJob(ctx, 3); },
      "03019003d70403ffffffff0f820100");

  auto kmeans = std::make_shared<pipejobs::KmeansIterCtx>();
  kmeans->centroids = {{1.0, -2.0}, {3.5}};
  kmeans->dataset = &dataset;
  ExpectCtx<pipejobs::KmeansIterCtx>(
      kmeans, [](auto ctx) { return pipejobs::MakeKmeansIterJob(ctx, 4); },
      "0202000000000000f03f00000000000000c0010000000000000c40" + kDatasetHex);
}

// The reduce-side formats, whose per-partition spill flag moved into the
// engine: the reduce slot carries no merge-pass count, and a remote reduce
// input is the partition's runs alone.
TEST(WireGoldenTest, ReduceSlotAndRemoteReduceInput) {
  mr::internal::ReduceTaskOutput<lshjobs::LshDeltaOut> slot;
  slot.out = {{700, {6.25, 400}}};
  slot.groups = 130;
  slot.skipped = 140;
  slot.group_size_log2 = {0, 150};
  const mr::internal::SlotCodec codec =
      mr::internal::ReduceSlotCodec<lshjobs::LshDeltaOut>();
  BufferWriter w;
  codec.serialize(&w, slot);
  EXPECT_EQ(Hex(w.data()), "01bc050000000000001940900382018c0102009601");
  mr::internal::ReduceTaskOutput<lshjobs::LshDeltaOut> back;
  BufferReader r(w.data());
  ASSERT_TRUE(codec.deserialize(&r, &back).ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.out, slot.out);
  EXPECT_EQ(back.group_size_log2, slot.group_size_log2);

  const std::vector<std::string> runs = {std::string(130, 'r'), ""};
  const std::string input = RecordBytes(runs);
  EXPECT_EQ(Hex(input.substr(0, 4)), "02820172");
  std::vector<std::string> decoded;
  ASSERT_TRUE(mr::internal::DecodeReduceInput(input, &decoded).ok());
  EXPECT_EQ(decoded, runs);
}

// ---------------------------------------------------------------- mutation

// A decoder and one valid encoding for it.
struct Decodable {
  std::string name;
  std::string bytes;
  std::function<Status(const std::string&)> decode;
};

template <typename Msg>
Decodable MessageCase(const std::string& name, const Msg& msg) {
  return {name, msg.Encode(), [](const std::string& bytes) {
            Msg out;
            return Msg::Decode(bytes, &out);
          }};
}

template <typename T>
Decodable RecordCase(const std::string& name, const T& v) {
  return {name, RecordBytes(v), [](const std::string& bytes) {
            BufferReader r(bytes);
            T out;
            return Serde<T>::Read(&r, &out);
          }};
}

template <typename Ctx>
Decodable CtxCase(const std::string& name, const Ctx& ctx) {
  return {name, RecordBytes(ctx), [](const std::string& bytes) {
            return Ctx::DecodeNew(bytes).status();
          }};
}

Decodable SlotCase(const std::string& name, mr::internal::SlotCodec codec,
                   mr::internal::TaskSlot& slot,
                   std::function<std::unique_ptr<mr::internal::TaskSlot>()>
                       new_slot) {
  BufferWriter w;
  codec.serialize(&w, slot);
  return {name, w.Release(), [codec, new_slot](const std::string& bytes) {
            BufferReader r(bytes);
            std::unique_ptr<mr::internal::TaskSlot> out = new_slot();
            return codec.deserialize(&r, out.get());
          }};
}

// One corruption of `bytes`: a flipped bit, a truncation, inserted bytes,
// or an inflated varint (a run of continuation bytes written over or into
// the encoding).
std::string Mutate(const std::string& bytes, Rng* rng) {
  std::string out = bytes;
  const size_t pos = rng->UniformInt(out.size() + 1);
  switch (rng->UniformInt(4)) {
    case 0:
      if (!out.empty()) {
        out[pos % out.size()] ^= static_cast<char>(1 << rng->UniformInt(8));
      }
      break;
    case 1:
      out.resize(pos);
      break;
    case 2:
      for (uint64_t k = 1 + rng->UniformInt(4); k > 0; --k) {
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>(rng->UniformInt(256)));
      }
      break;
    default: {
      std::string varint(1 + rng->UniformInt(10), '\xff');
      varint.push_back(static_cast<char>(1 + rng->UniformInt(127)));
      if (rng->UniformInt(2) == 0) {
        out.insert(pos, varint);
      } else {
        out.replace(pos, varint.size(), varint);
      }
      break;
    }
  }
  return out;
}

std::vector<Decodable> AllDecodables(const Dataset& dataset) {
  std::vector<Decodable> cases;
  mr::ResultMsg result;
  result.task = 300;
  result.status_code = -5;
  result.status_message = "boom";
  result.payload = "xyz";
  cases.push_back(MessageCase("ResultMsg", result));
  mr::HelloMsg hello;
  hello.worker_id = 1000;
  cases.push_back(MessageCase("HelloMsg", hello));
  mr::JobSetupMsg setup;
  setup.job_id = "lsh-rho-local";
  setup.phase = 1;
  setup.ctx = "ctx";
  setup.num_partitions = 130;
  setup.faults.seed = 20260808;
  setup.faults.corruption_rate = 0.5;
  cases.push_back(MessageCase("JobSetupMsg", setup));
  mr::TaskAssignMsg assign;
  assign.task = 131;
  assign.quarantined = true;
  assign.window_bytes = 4194304;
  assign.input = "input";
  cases.push_back(MessageCase("TaskAssignMsg", assign));
  mr::RunBeginMsg begin;
  begin.task = 140;
  begin.partition = 170;
  begin.spill_index = mr::kTailRunIndex;
  begin.length = 70000;
  cases.push_back(MessageCase("RunBeginMsg", begin));
  mr::RunEndMsg end;
  end.seq = 160;
  cases.push_back(MessageCase("RunEndMsg", end));
  mr::RunAckMsg ack;
  ack.acked_runs = 180;
  ack.acked_bytes = 1 << 20;
  cases.push_back(MessageCase("RunAckMsg", ack));

  cases.push_back(MessageCase("JobParams", Params()));
  server::JobSubmitMsg submit;
  submit.params = Params();
  submit.dataset_path = "/data/x.ddpb";
  cases.push_back(MessageCase("JobSubmitMsg", submit));
  server::JobPollMsg poll;
  poll.job_id = 1000;
  cases.push_back(MessageCase("JobPollMsg", poll));
  server::JobCancelMsg cancel;
  cancel.job_id = server::kShutdownJobId;
  cases.push_back(MessageCase("JobCancelMsg", cancel));
  server::JobStatusMsg status;
  status.state = 200;
  status.detail = "queued";
  cases.push_back(MessageCase("JobStatusMsg", status));
  cases.push_back(MessageCase("JobResultPayload", ResultPayload()));
  server::JobResultMsg job_result;
  job_result.state = 2;
  job_result.payload = ResultPayload().Encode();
  cases.push_back(MessageCase("JobResultMsg", job_result));

  cases.push_back(
      RecordCase("PointRecord", ddprec::PointRecord{300, {1.5, -2.25}}));
  cases.push_back(RecordCase("ScoredPointRecord", Scored()));
  cases.push_back(
      RecordCase("DeltaCandidate", ddprec::DeltaCandidate{6.25, 400}));
  cases.push_back(RecordCase(
      "BlockedPoint", basicjobs::BlockedPoint{130, {302, 140, {3.0, 4.0}}}));
  cases.push_back(
      RecordCase("CellPoint", eddpcjobs::CellPoint{200, {303, {5.0}}}));
  eddpcjobs::MemberOrQuery query;
  query.is_query = 1;
  query.id = 310;
  query.delta_ub_sq = 2.25;
  query.coords = {6.0, -7.0};
  cases.push_back(RecordCase("MemberOrQuery", query));
  eddpcjobs::HomeInfo home;
  home.id = 304;
  home.cell = 160;
  cases.push_back(RecordCase("HomeInfo", home));
  cases.push_back(RecordCase("BoundInfo", Bound()));
  eddpcjobs::BoundOrStats stats;
  stats.bound = Bound();
  stats.max_rho = 210;
  cases.push_back(RecordCase("BoundOrStats", stats));
  pipejobs::JumpMessage jump;
  jump.cluster = -130;
  jump.parent = 400;
  cases.push_back(RecordCase("JumpMessage", jump));
  pipejobs::JumpUpdate update;
  update.point = 500;
  update.cluster = -2;
  cases.push_back(RecordCase("JumpUpdate", update));
  pipejobs::CentroidPartial partial;
  partial.sum = {1.0, 2.0};
  partial.count = 300;
  cases.push_back(RecordCase("CentroidPartial", partial));
  cases.push_back(RecordCase(
      "Checkpoint", std::vector<lshjobs::LshDeltaOut>{{700, {6.25, 400}}}));

  mr::internal::MapTaskOutput map_slot;
  map_slot.payload_bytes = {130, 0, 70000};
  map_slot.records = 300;
  map_slot.spill_seconds = 0.25;
  cases.push_back(SlotCase("MapSlot", mr::internal::MapSlotCodec(3), map_slot,
                           [] {
                             return std::make_unique<
                                 mr::internal::MapTaskOutput>();
                           }));
  using ReduceSlot = mr::internal::ReduceTaskOutput<lshjobs::LshDeltaOut>;
  ReduceSlot reduce_slot;
  reduce_slot.out = {{700, {6.25, 400}}};
  reduce_slot.groups = 130;
  reduce_slot.group_size_log2 = {0, 150};
  cases.push_back(SlotCase(
      "ReduceSlot", mr::internal::ReduceSlotCodec<lshjobs::LshDeltaOut>(),
      reduce_slot, [] { return std::make_unique<ReduceSlot>(); }));

  lshjobs::LshJobsCtx lsh;
  lsh.dc = 0.75;
  lsh.num_layouts = 4;
  lsh.pi = 3;
  lsh.width = 4.0;
  lsh.rho_hat = {200, 1, 2};
  lsh.dataset = &dataset;
  cases.push_back(CtxCase("LshJobsCtx", lsh));
  basicjobs::BasicJobsCtx basic;
  basic.num_blocks = 130;
  basic.rho = {200, 7, 1};
  basic.dataset = &dataset;
  cases.push_back(CtxCase("BasicJobsCtx", basic));
  eddpcjobs::EddpcJobsCtx eddpc;
  eddpc.pivots = {{1.0, 2.0}, {-3.0, 0.5}};
  eddpc.cell_radius = {0.5, 1.5};
  eddpc.cell_max_rho = {130, 7};
  eddpc.cell_nonempty = {1, 0};
  eddpc.dataset = &dataset;
  cases.push_back(CtxCase("EddpcJobsCtx", eddpc));
  pipejobs::ChooseDcCtx choose;
  choose.rate = 0.125;
  choose.seed = 130;
  choose.dataset = &dataset;
  cases.push_back(CtxCase("ChooseDcCtx", choose));
  const std::vector<int> assignment = {-1, 200, -300};
  const std::vector<PointId> parent = {kInvalidPointId, 130, 0};
  pipejobs::AssignJumpCtx jump_ctx;
  jump_ctx.assignment = &assignment;
  jump_ctx.parent = &parent;
  cases.push_back(CtxCase("AssignJumpCtx", jump_ctx));
  pipejobs::KmeansIterCtx kmeans;
  kmeans.centroids = {{1.0, -2.0}, {3.5, 0.0}};
  kmeans.dataset = &dataset;
  cases.push_back(CtxCase("KmeansIterCtx", kmeans));

  const std::vector<PointId> ids = {300, 5, kInvalidPointId};
  cases.push_back(
      {"MapInput<PointId>",
       mr::internal::EncodeMapSlice(std::span<const PointId>(ids)),
       [](const std::string& bytes) {
         std::vector<PointId> slice;
         return mr::internal::DecodeMapInput(bytes, &slice);
       }});
  const std::vector<eddpcjobs::BoundInfo> bounds = {Bound(), Bound()};
  cases.push_back(
      {"MapInput<BoundInfo>",
       mr::internal::EncodeMapSlice(
           std::span<const eddpcjobs::BoundInfo>(bounds)),
       [](const std::string& bytes) {
         std::vector<eddpcjobs::BoundInfo> slice;
         return mr::internal::DecodeMapInput(bytes, &slice);
       }});
  cases.push_back({"ReduceInput",
                   RecordBytes(std::vector<std::string>{"run-a", "", "b"}),
                   [](const std::string& bytes) {
                     std::vector<std::string> sources;
                     return mr::internal::DecodeReduceInput(bytes, &sources);
                   }});
  return cases;
}

// Every decoder above, fed 1,000 seeded corruptions of a valid encoding,
// returns OK or an error Status: it never throws, and under ASan+UBSan
// never reads out of bounds or allocates by an unchecked count.
TEST(WireMutationTest, EveryDecoderReturnsAStatusOnCorruptBytes) {
  const Dataset dataset =
      Dataset::FromValues(2, {0.0, 1.0, 2.0, 3.0, -4.0, 5.5}).ValueOrDie();
  const std::vector<Decodable> cases = AllDecodables(dataset);
  for (size_t k = 0; k < cases.size(); ++k) {
    const Decodable& c = cases[k];
    ASSERT_TRUE(c.decode(c.bytes).ok()) << c.name;
    Rng rng(SplitSeed(20261022, k));
    size_t rejected = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::string bytes = Mutate(c.bytes, &rng);
      Status st;
      EXPECT_NO_THROW(st = c.decode(bytes)) << c.name << " mutation " << i;
      rejected += st.ok() ? 0 : 1;
    }
    // Truncations alone reject about a quarter of the mutations.
    EXPECT_GT(rejected, 100u) << c.name;
  }
}

}  // namespace
}  // namespace ddp
