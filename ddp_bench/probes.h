#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "lsh/partitioner.h"

/// \file probes.h
/// Unit-cost probes for the traced run: each one times a layer's public
/// functions on inputs shaped like a workload's, so layers whose spans are
/// lost (work done in fork or remote worker processes) still get a cost per
/// unit of the work the counters report. Every probe repeats its work for a
/// fixed minimum time and returns the median repetition.

namespace ddp::bench {

/// Nanoseconds per (point, layout) of HashGroup::KeyInto over `dataset`.
double ProbeHashNs(const lsh::MultiLshPartitioner& partitioner,
                   const Dataset& dataset);

/// The `count` largest buckets across all layouts of `partitioner`.
std::vector<std::vector<PointId>> LargestBuckets(
    const lsh::MultiLshPartitioner& partitioner, const Dataset& dataset,
    size_t count);

/// Nanoseconds per counted distance evaluation of the single-threaded
/// brute-force LocalDpEngine::Rho over `groups`.
double ProbeNsPerEval(const Dataset& dataset,
                      const std::vector<std::vector<PointId>>& groups,
                      double dc);

struct SpillRates {
  double write_mb_per_s = 0.0;
  double read_mb_per_s = 0.0;
};

/// Writes spill files of one CRC-trailed run of `bytes_per_file` bytes each
/// (frames of `frame_bytes`) with SpillFileWriter under `dir`, then streams
/// them back with SpillSegmentReader::NextFrame. MB is 10^6 bytes.
Result<SpillRates> ProbeSpill(const std::string& dir, uint64_t bytes_per_file,
                              uint64_t frame_bytes);

/// Microseconds per kRunData frame of `payload_bytes` sent over one end of a
/// PipeChannel pair and received on the other by a second thread.
Result<double> ProbeFrameMicros(size_t payload_bytes);

/// Crc32 throughput in MB/s over a buffer of `bytes`.
double ProbeCrc32MbPerS(size_t bytes);

}  // namespace ddp::bench
