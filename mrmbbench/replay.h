// Layer replay: one functional job's data path re-run on one thread through
// the public entry points the engine uses, with a span around each call.
//
// Map side, per map task: RecordGenerator -> Partitioner -> KvBuffer
// Append/Sort/ToSpill -> combiner (CombineSegment) -> SpillStore::Put when
// over the spill budget -> spill merge (MergeFramedRuns, CombineSortedRun)
// and SealSegment -> CompressSegment -> SpillStore::Put of the final output.
// Then BuildNodeCombinedSegment per block of co-located maps. Reduce side:
// ShuffleTransportServer::Publish + ShuffleTransportClient::FetchBatch (tcp)
// or StoredSpill::ReadPartition / VerifySegmentPartition (in-process),
// BlockDecompress, then MergeIterator + GroupedIterator into the reducer.
//
// Everything runs under one root span ("replay"), so the root's self time
// is the replay's own glue and every layer's self time excludes its
// children.

#ifndef MRMBBENCH_REPLAY_H_
#define MRMBBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapred/job_conf.h"
#include "trace.h"

namespace mrmbbench {

// Work counts the spans do not carry.
struct ReplayCounts {
  int64_t checksum_bytes = 0;
  int64_t verifications = 0;
  int64_t store_bytes_written = 0;
  int64_t store_bytes_read = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t degradations = 0;
  int64_t merge_records = 0;
  int64_t node_streams = 0;
  // Per-partition fetch latency over tcp.
  std::vector<double> fetch_latency_ms;
  int64_t rpc_frames = 0;
  int64_t reduce_groups = 0;
};

// Replays `conf`'s job, recording spans into `log` under `job_id`.
// `scratch_dir` holds the replay's spill store. Fails if any layer call
// fails or a fetched partition does not verify.
mrmb::Result<ReplayCounts> ReplayJob(const mrmb::JobConf& conf,
                                     const std::string& scratch_dir,
                                     SpanLog* log, int job_id);

}  // namespace mrmbbench

#endif  // MRMBBENCH_REPLAY_H_
