#include "probes.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/serde.h"
#include "common/stopwatch.h"
#include "core/kernel.h"
#include "core/local_dp.h"
#include "mapreduce/channel.h"
#include "mapreduce/spill.h"
#include "support.h"

namespace ddp::bench {
namespace {

// Repeats `rep` until at least this much time and kMinReps repetitions have
// passed, so one descheduling on a shared machine cannot set the result.
constexpr double kMinProbeSeconds = 0.2;
constexpr int kMinReps = 3;

template <typename Fn>
double MedianRepSeconds(Fn&& rep) {
  std::vector<double> reps;
  Stopwatch total;
  while (static_cast<int>(reps.size()) < kMinReps ||
         total.ElapsedSeconds() < kMinProbeSeconds) {
    Stopwatch one;
    rep();
    reps.push_back(one.ElapsedSeconds());
  }
  return Median(std::move(reps));
}

// Keeps a probe's result observable so the timed work is not optimized away.
volatile uint64_t g_sink = 0;
void Consume(uint64_t v) { g_sink = g_sink + v; }

}  // namespace

double ProbeHashNs(const lsh::MultiLshPartitioner& partitioner,
                   const Dataset& dataset) {
  lsh::BucketKey key;
  const double seconds = MedianRepSeconds([&] {
    for (size_t m = 0; m < partitioner.num_layouts(); ++m) {
      const lsh::HashGroup& group = partitioner.group(m);
      for (size_t i = 0; i < dataset.size(); ++i) {
        group.KeyInto(dataset.point(static_cast<PointId>(i)), &key);
        Consume(static_cast<uint64_t>(key[0]));
      }
    }
  });
  const double keys =
      static_cast<double>(partitioner.num_layouts() * dataset.size());
  return seconds * 1e9 / keys;
}

std::vector<std::vector<PointId>> LargestBuckets(
    const lsh::MultiLshPartitioner& partitioner, const Dataset& dataset,
    size_t count) {
  std::vector<std::vector<PointId>> buckets;
  for (auto& layout : partitioner.PartitionAll(dataset)) {
    for (auto& [key, ids] : layout) buckets.push_back(std::move(ids));
  }
  // Largest first; equal sizes by member ids, so the pick is deterministic.
  std::sort(buckets.begin(), buckets.end(),
            [](const std::vector<PointId>& a, const std::vector<PointId>& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  buckets.resize(std::min(count, buckets.size()));
  return buckets;
}

double ProbeNsPerEval(const Dataset& dataset,
                      const std::vector<std::vector<PointId>>& groups,
                      double dc) {
  LocalDpEngineOptions options;
  options.backend = LocalDpBackend::kBruteForce;
  options.parallel_min_group = 0;  // one thread: a unit cost, not a speedup
  const LocalDpEngine engine(options);
  std::vector<LocalPointView> views;
  for (const auto& ids : groups) {
    views.push_back(LocalPointView::SubsetOf(dataset, ids));
  }
  // Every repetition evaluates the same pairs; count them once.
  DistanceCounter evals;
  const CountingMetric counting(&evals);
  for (const LocalPointView& view : views) {
    engine.Rho(view, dc, DensityKernel::kCutoff, counting);
  }
  const CountingMetric metric;
  const double seconds = MedianRepSeconds([&] {
    for (const LocalPointView& view : views) {
      Consume(engine.Rho(view, dc, DensityKernel::kCutoff, metric)[0]);
    }
  });
  return evals.value() == 0
             ? 0.0
             : seconds * 1e9 / static_cast<double>(evals.value());
}

Result<SpillRates> ProbeSpill(const std::string& dir, uint64_t bytes_per_file,
                              uint64_t frame_bytes) {
  constexpr uint64_t kProbeBytes = uint64_t{8} << 20;
  bytes_per_file = std::max<uint64_t>(bytes_per_file, 64);
  frame_bytes = std::clamp<uint64_t>(frame_bytes, 1, bytes_per_file / 2);
  const uint64_t files = std::max<uint64_t>(16, kProbeBytes / bytes_per_file);

  // One run's frames: [varint length][payload] until the run (plus its
  // 4-byte CRC trailer) fills the file.
  std::string run;
  BufferWriter writer(&run);
  while (run.size() + frame_bytes + 4 + 10 <= bytes_per_file) {
    writer.PutVarint64(frame_bytes);
    for (uint64_t b = 0; b < frame_bytes; ++b) {
      writer.PutByte(static_cast<uint8_t>(b * 131 + run.size()));
    }
  }

  std::vector<double> write_s;
  std::vector<double> read_s;
  uint64_t bytes = 0;
  Stopwatch total;
  while (static_cast<int>(write_s.size()) < kMinReps ||
         total.ElapsedSeconds() < kMinProbeSeconds) {
    std::vector<std::pair<std::shared_ptr<mr::SpillFileHandle>, mr::SpillExtent>>
        done;
    bytes = 0;
    Stopwatch write;
    for (uint64_t f = 0; f < files; ++f) {
      DDP_ASSIGN_OR_RETURN(
          std::unique_ptr<mr::SpillFileWriter> out,
          mr::SpillFileWriter::Create(
              dir, "probe-" + mr::internal::SpillOwnerTag() + "-u" +
                       std::to_string(mr::internal::NextSpillFileId()) +
                       ".spill"));
      out->BeginRun();
      out->Append(run.data(), run.size());
      DDP_ASSIGN_OR_RETURN(mr::SpillExtent extent, out->EndRun());
      bytes += out->bytes_written();
      DDP_RETURN_NOT_OK(out->Close());
      done.emplace_back(out->handle(), extent);
    }
    write_s.push_back(write.ElapsedSeconds());

    Stopwatch read;
    for (auto& [handle, extent] : done) {
      mr::SpillSegmentReader reader(handle, extent.offset, extent.length);
      std::string_view frame;
      bool eof = false;
      while (!eof) DDP_RETURN_NOT_OK(reader.NextFrame(&frame, &eof));
    }
    read_s.push_back(read.ElapsedSeconds());
  }  // handles drop here and unlink their files
  SpillRates rates;
  const double mb = static_cast<double>(bytes) / 1e6;
  rates.write_mb_per_s = mb / Median(write_s);
  rates.read_mb_per_s = mb / Median(read_s);
  return rates;
}

Result<double> ProbeFrameMicros(size_t payload_bytes) {
  constexpr size_t kProbeBytes = size_t{16} << 20;
  const size_t frames = std::clamp<size_t>(kProbeBytes / payload_bytes, 16,
                                           4096);
  DDP_ASSIGN_OR_RETURN(auto pair, mr::PipeChannel::CreatePair());
  std::unique_ptr<mr::PipeChannel> sender = std::move(pair.first);
  std::unique_ptr<mr::PipeChannel> receiver = std::move(pair.second);
  const mr::Frame frame{mr::MessageType::kRunData,
                        std::string(payload_bytes, 'x')};
  Status failure;
  const double seconds = MedianRepSeconds([&] {
    Status received;
    std::thread reader([&] {
      mr::Frame in;
      for (size_t k = 0; k < frames && received.ok(); ++k) {
        received = receiver->Recv(&in, /*timeout_seconds=*/10.0);
      }
    });
    Status sent;
    for (size_t k = 0; k < frames && sent.ok(); ++k) sent = sender->Send(frame);
    reader.join();
    if (!sent.ok()) failure = sent;
    if (!received.ok()) failure = received;
  });
  DDP_RETURN_NOT_OK(failure);
  return seconds * 1e6 / static_cast<double>(frames);
}

double ProbeCrc32MbPerS(size_t bytes) {
  std::string buffer(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    buffer[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  const double seconds =
      MedianRepSeconds([&] { Consume(Crc32(buffer.data(), buffer.size())); });
  return static_cast<double>(bytes) / 1e6 / seconds;
}

}  // namespace ddp::bench
