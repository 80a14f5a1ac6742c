// Map-side collect buffer and spill segments.
//
// KvBuffer plays the role of Hadoop's MapOutputBuffer (io.sort.mb): map
// output records are appended in IFile framing (vint key length, vint value
// length, key bytes, value bytes) into an arena, with a side index of
// record references. The arena is raw memory, never zero-filled: Append
// writes each whole frame in place, and the arena is allocated at
// min(capacity, 16 MiB) up front and doubles (up to capacity) only past
// that. The index is *bucketed by partition at append time*
// (the partition is already known in Append), so sorting never compares
// partition ids and ToSpill is a contiguous per-partition gather. Each
// reference caches an 8-byte normalized key prefix (io/key_prefix.h). For
// prefix-decisive key types (Int/Long/NullWritable) a bucket sorts with a
// stable LSD radix sort on that prefix, skipping byte positions that are
// constant across the bucket; other types use std::stable_sort, where most
// comparisons are a single uint64_t compare with a fallback to the
// RawComparator only on prefix ties. Both give the same order: key order,
// then arrival order. Partitions sort independently: Sort(pool) fans the
// per-partition sorts out over a dedicated thread pool with byte-identical
// results for any thread count.

#ifndef MRMB_IO_KV_BUFFER_H_
#define MRMB_IO_KV_BUFFER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/comparator.h"
#include "io/writable.h"

namespace mrmb {

// An immutable sorted run of framed records with a per-partition index.
struct SpillSegment {
  struct PartitionRange {
    int64_t offset = 0;   // byte offset into `data`
    int64_t length = 0;   // bytes as stored (on-wire when compressed)
    int64_t records = 0;  // record count
    // Decompressed (logical) size of the range when the spill path ran a
    // codec over it (CompressSegment, map_output_codec != none); -1 when
    // the range holds raw framed records.
    int64_t raw_length = -1;
    // CRC32C of the range's bytes, sealed at spill/merge time (Hadoop's
    // IFile checksum) and verified at shuffle-read time. For compressed
    // ranges this covers the compressed bytes — verification never pays
    // for more than what travelled the wire.
    uint32_t crc = 0;

    int64_t raw_bytes() const { return raw_length >= 0 ? raw_length : length; }
  };

  std::string data;
  std::vector<PartitionRange> partitions;
  // True once every partition crc has been computed (see io/checksum.h).
  bool sealed = false;

  int64_t total_bytes() const { return static_cast<int64_t>(data.size()); }
  int64_t total_records() const {
    int64_t n = 0;
    for (const PartitionRange& p : partitions) n += p.records;
    return n;
  }
  // The framed bytes destined for one partition.
  std::string_view PartitionData(int partition) const;
};

class KvBuffer {
 public:
  // One collected record: where its frame, key and value sit in the arena.
  struct RecordRef {
    uint64_t key_prefix;    // normalized prefix (io/key_prefix.h)
    uint32_t frame_offset;  // start of framing header in arena
    uint32_t key_offset;    // start of key bytes
    uint32_t key_len;
    uint32_t value_len;
  };

  // `capacity_bytes` bounds the arena like io.sort.mb; Append returns false
  // once a record would overflow it (caller then spills and Clear()s).
  KvBuffer(DataType key_type, int num_partitions, size_t capacity_bytes);

  KvBuffer(const KvBuffer&) = delete;
  KvBuffer& operator=(const KvBuffer&) = delete;

  // Appends one record with already-serialized key and value bytes.
  // Returns false (without appending) if the framed record would exceed the
  // remaining capacity — including a record larger than the whole buffer,
  // which still fails on an empty buffer (callers detect that case with
  // Fits() and surface ResourceExhausted instead of spilling forever).
  bool Append(int partition, std::string_view key, std::string_view value);

  // True if a record with these payloads could ever fit an empty buffer.
  bool Fits(std::string_view key, std::string_view value) const;

  // Sorts each partition's records by raw key order. Stable, so equal keys
  // keep arrival order within their partition (Hadoop's IndexedSorter does
  // not guarantee this, but determinism helps our tests). Equivalent to
  // Sort(nullptr).
  void Sort();

  // Same, but fans the independent per-partition sorts out over `pool`
  // (nullptr or a single-thread pool sorts inline). The pool must be
  // dedicated to this call: Sort waits for the whole pool to drain. The
  // sorted order — and therefore every spilled byte — is identical for any
  // thread count.
  void Sort(ThreadPool* pool);

  // Emits the sorted records as a spill segment. Requires Sort() first.
  SpillSegment ToSpill() const;

  void Clear();

  size_t bytes_used() const { return arena_used_; }
  size_t capacity() const { return capacity_; }
  DataType key_type() const { return key_type_; }
  int64_t records() const { return num_records_; }
  int num_partitions() const { return num_partitions_; }
  bool sorted() const { return sorted_; }

  // Read access to record `i` in partition-major index order: partitions
  // ascend, and within a partition records are in arrival order before
  // Sort() and key order after.
  std::string_view KeyAt(int64_t i) const;
  std::string_view ValueAt(int64_t i) const;
  int PartitionAt(int64_t i) const;

  // One partition's records, in arrival order before Sort() and key order
  // after; KeyOf/ValueOf resolve them. Views stay valid until the next
  // Append or Clear.
  std::span<const RecordRef> PartitionRecords(int partition) const {
    return buckets_[static_cast<size_t>(partition)];
  }
  std::string_view KeyOf(const RecordRef& ref) const {
    return std::string_view(arena_.get() + ref.key_offset, ref.key_len);
  }
  std::string_view ValueOf(const RecordRef& ref) const {
    return std::string_view(arena_.get() + ref.key_offset + ref.key_len,
                            ref.value_len);
  }

 private:
  const RecordRef& RefAt(int64_t i, int* partition) const;
  void SortBucket(std::vector<RecordRef>* bucket);
  // Reallocates the arena to hold at least `needed` bytes.
  void GrowArena(size_t needed);

  DataType key_type_;
  const RawComparator* comparator_;
  bool prefix_decisive_;
  int num_partitions_;
  size_t capacity_;
  std::unique_ptr<char[]> arena_;
  size_t arena_used_ = 0;
  size_t arena_allocated_ = 0;
  std::vector<std::vector<RecordRef>> buckets_;  // one per partition
  int64_t num_records_ = 0;
  bool sorted_ = false;
};

}  // namespace mrmb

#endif  // MRMB_IO_KV_BUFFER_H_
