// Merging spill segments into a task's final map output.
//
// When a map task spills more than once, Hadoop merges the sorted spills
// into a single partition-indexed file that the shuffle then serves.
// MergeSegments does the same in memory with a k-way merge per partition.

#ifndef MRMB_MAPRED_MAP_OUTPUT_H_
#define MRMB_MAPRED_MAP_OUTPUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/block_codec.h"
#include "io/comparator.h"
#include "io/kv_buffer.h"
#include "mapred/api.h"

namespace mrmb {

// One sorted run of framed records, annotated with where it came from so a
// malformed stream can be blamed on its producer. `source_map` is the map
// task id for raw fetched partitions and -1 for runs the merger itself
// produced (those bytes were already validated when they were written).
struct FramedRun {
  std::string_view data;
  int source_map = -1;
};

// Output of MergeFramedRuns: one sorted framed run plus its record count.
struct MergedRun {
  std::string data;
  int64_t records = 0;
};

// K-way merges individually-sorted framed runs into one framed run. Key
// order is `comparator` order; equal keys keep the input order of `runs`,
// so callers that pass runs in ascending map-id order preserve the global
// map-order tie-break of a single flat merge. On malformed input returns
// DataLoss and, when `corrupt_sources` is non-null, appends the source_map
// of every input stream that failed mid-merge.
Result<MergedRun> MergeFramedRuns(const std::vector<FramedRun>& runs,
                                  const RawComparator* comparator,
                                  std::vector<int>* corrupt_sources = nullptr);

// Merges sorted spill segments (all with the same partition count) into one
// sorted, sealed segment. Key order within each partition is decided by
// `comparator`. When `verify_checksums` is set, every input partition range
// is CRC-verified before it is read (shuffle-read semantics); a mismatch
// returns DataLoss and no output is produced. A stream that turns out to be
// malformed mid-merge also returns DataLoss.
Result<SpillSegment> MergeSegments(
    const std::vector<const SpillSegment*>& segments,
    const RawComparator* comparator, bool verify_checksums = true);

// Re-frames every partition of a segment through `codec` (io/block_codec.h):
// each partition range becomes one self-describing codec frame of the
// original framed records, PartitionRange::raw_length keeps the logical
// size, and the re-sealed CRCs cover the compressed bytes — shuffle-read
// verification then hashes only what travelled the wire. `codec` must not
// be kNone.
Result<SpillSegment> CompressSegment(MapOutputCodec codec,
                                     const SpillSegment& segment);

// Runs `combiner` over every key group of one sorted framed run and returns
// the combined, still-sorted run. This is the kernel of every combine stage
// that reads framed bytes: merge-time combining of multi-spill map output
// and reduce-side fold output, the in-node combine of co-located map
// segments (mapred/node_combiner.h), and CombineSegment. The combiner
// must emit keys equal to the group key (the usual sum/count combiners do),
// or the output order is unspecified. Malformed framing in `run` returns
// DataLoss.
Result<MergedRun> CombineSortedRun(std::string_view run,
                                   const RawComparator* comparator,
                                   Reducer* combiner, const JobConf& conf,
                                   int task_id);

// Hadoop's per-spill combine (MapOutputBuffer.sortAndSpill): runs
// `combiner` over every key group of every partition of a sorted collect
// buffer, reading records straight out of its arena, and frames and seals
// only what the combiner emits. The result is byte-identical to
// CombineSegment(buffer.ToSpill(), ...) without building the uncombined
// segment. Every key's wire format is validated against the buffer's key
// type, as SegmentReader does for framed runs; a malformed key (a mapper
// emitting bytes of the wrong shape) returns InvalidArgument and never
// joins a neighbour's group.
Result<SpillSegment> CombineBuffer(const KvBuffer& buffer, Reducer* combiner,
                                   const JobConf& conf, int task_id);

// Runs `combiner` over every key group of every partition of a sorted
// segment and returns the combined, still-sorted, sealed segment. The
// segment must be well-formed (it was just built in RAM); malformed
// framing aborts.
SpillSegment CombineSegment(const SpillSegment& segment,
                            const RawComparator* comparator,
                            Reducer* combiner, const JobConf& conf,
                            int task_id);

}  // namespace mrmb

#endif  // MRMB_MAPRED_MAP_OUTPUT_H_
