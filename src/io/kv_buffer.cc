#include "io/kv_buffer.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/key_prefix.h"

namespace mrmb {

std::string_view SpillSegment::PartitionData(int partition) const {
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(static_cast<size_t>(partition), partitions.size());
  const PartitionRange& range = partitions[static_cast<size_t>(partition)];
  return std::string_view(data).substr(static_cast<size_t>(range.offset),
                                       static_cast<size_t>(range.length));
}

namespace {

size_t FramedLength(std::string_view key, std::string_view value) {
  return VarintLength(static_cast<int64_t>(key.size())) +
         VarintLength(static_cast<int64_t>(value.size())) + key.size() +
         value.size();
}

// Stable LSD radix sort of `refs` by their 8-byte key_prefix, one byte per
// digit. A first pass ORs every prefix's difference from the first one, so
// digits whose value is the same across the whole bucket (e.g. the
// sign-flipped top bytes of small LongWritable keys, or the unused low half
// of IntWritable prefixes) get neither a histogram nor a scatter pass. Each
// scatter pass is stable, so equal prefixes keep arrival order: for
// prefix-decisive key types the result is exactly what std::stable_sort
// with the raw comparator produces. The scratch buffer lives only for this
// call, like std::stable_sort's temporary buffer.
template <typename Ref>
void RadixSortByPrefix(std::vector<Ref>* refs) {
  const size_t n = refs->size();
  if (n < 2) return;
  constexpr int kDigits = 8;
  const uint64_t first = (*refs)[0].key_prefix;
  uint64_t varying = 0;
  for (const Ref& ref : *refs) varying |= ref.key_prefix ^ first;
  int shifts[kDigits] = {};
  int num_digits = 0;
  for (int d = 0; d < kDigits; ++d) {
    if (((varying >> (8 * d)) & 0xFF) != 0) shifts[num_digits++] = 8 * d;
  }
  if (num_digits == 0) return;
  uint32_t counts[kDigits][256];
  std::memset(counts, 0, sizeof(counts[0]) * static_cast<size_t>(num_digits));
  for (const Ref& ref : *refs) {
    for (int k = 0; k < num_digits; ++k) {
      ++counts[k][(ref.key_prefix >> shifts[k]) & 0xFF];
    }
  }
  std::unique_ptr<Ref[]> scratch = std::make_unique_for_overwrite<Ref[]>(n);
  Ref* src = refs->data();
  Ref* dst = scratch.get();
  for (int k = 0; k < num_digits; ++k) {
    const int shift = shifts[k];
    uint32_t* count = counts[k];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i].key_prefix >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != refs->data()) std::copy(src, src + n, refs->data());
}

}  // namespace

KvBuffer::KvBuffer(DataType key_type, int num_partitions,
                   size_t capacity_bytes)
    : key_type_(key_type),
      comparator_(ComparatorFor(key_type)),
      prefix_decisive_(PrefixIsDecisive(key_type)),
      num_partitions_(num_partitions),
      capacity_(capacity_bytes) {
  MRMB_CHECK_GT(num_partitions_, 0);
  MRMB_CHECK_GT(capacity_, 0u);
  GrowArena(std::min<size_t>(capacity_, 16u << 20));
  buckets_.resize(static_cast<size_t>(num_partitions_));
}

bool KvBuffer::Append(int partition, std::string_view key,
                      std::string_view value) {
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(partition, num_partitions_);
  const size_t frame = FramedLength(key, value);
  if (frame > capacity_ || arena_used_ + frame > capacity_) return false;
  if (arena_used_ + frame > arena_allocated_) GrowArena(arena_used_ + frame);

  // Write the whole frame in place.
  RecordRef ref;
  ref.key_prefix = NormalizedKeyPrefix(key_type_, key);
  ref.frame_offset = static_cast<uint32_t>(arena_used_);
  arena_used_ += frame;
  char* out = arena_.get() + ref.frame_offset;
  out += EncodeVarint64(static_cast<int64_t>(key.size()), out);
  out += EncodeVarint64(static_cast<int64_t>(value.size()), out);
  ref.key_offset = static_cast<uint32_t>(out - arena_.get());
  ref.key_len = static_cast<uint32_t>(key.size());
  ref.value_len = static_cast<uint32_t>(value.size());
  out += key.copy(out, key.size());
  value.copy(out, value.size());
  buckets_[static_cast<size_t>(partition)].push_back(ref);
  ++num_records_;
  sorted_ = false;
  return true;
}

void KvBuffer::GrowArena(size_t needed) {
  // Geometric growth like std::string's, but never past the capacity that
  // Append enforces anyway.
  const size_t size =
      std::max(needed, std::min(2 * arena_allocated_, capacity_));
  std::unique_ptr<char[]> grown = std::make_unique_for_overwrite<char[]>(size);
  if (arena_used_ > 0) std::memcpy(grown.get(), arena_.get(), arena_used_);
  arena_ = std::move(grown);
  arena_allocated_ = size;
}

bool KvBuffer::Fits(std::string_view key, std::string_view value) const {
  return FramedLength(key, value) <= capacity_;
}

void KvBuffer::SortBucket(std::vector<RecordRef>* bucket) {
  if (prefix_decisive_) {
    RadixSortByPrefix(bucket);
    return;
  }
  std::stable_sort(bucket->begin(), bucket->end(),
                   [this](const RecordRef& a, const RecordRef& b) {
                     if (a.key_prefix != b.key_prefix) {
                       return a.key_prefix < b.key_prefix;
                     }
                     return comparator_->Compare(KeyOf(a), KeyOf(b)) < 0;
                   });
}

void KvBuffer::Sort() { Sort(nullptr); }

void KvBuffer::Sort(ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (std::vector<RecordRef>& bucket : buckets_) SortBucket(&bucket);
  } else {
    for (std::vector<RecordRef>& bucket : buckets_) {
      if (bucket.size() < 2) continue;
      pool->Submit([this, b = &bucket] { SortBucket(b); });
    }
    pool->Wait();
  }
  sorted_ = true;
}

SpillSegment KvBuffer::ToSpill() const {
  MRMB_CHECK(sorted_) << "ToSpill requires Sort()";
  SpillSegment spill;
  spill.data.reserve(arena_used_);
  spill.partitions.resize(static_cast<size_t>(num_partitions_));
  for (size_t p = 0; p < buckets_.size(); ++p) {
    SpillSegment::PartitionRange& range = spill.partitions[p];
    range.offset = static_cast<int64_t>(spill.data.size());
    for (const RecordRef& ref : buckets_[p]) {
      const size_t frame_len = (ref.key_offset - ref.frame_offset) +
                               ref.key_len + ref.value_len;
      spill.data.append(arena_.get() + ref.frame_offset, frame_len);
    }
    range.length = static_cast<int64_t>(spill.data.size()) - range.offset;
    range.records = static_cast<int64_t>(buckets_[p].size());
  }
  SealSegment(&spill);
  return spill;
}

void KvBuffer::Clear() {
  arena_used_ = 0;
  for (std::vector<RecordRef>& bucket : buckets_) bucket.clear();
  num_records_ = 0;
  sorted_ = false;
}

const KvBuffer::RecordRef& KvBuffer::RefAt(int64_t i, int* partition) const {
  MRMB_CHECK_GE(i, 0);
  MRMB_CHECK_LT(i, num_records_);
  size_t rest = static_cast<size_t>(i);
  for (size_t p = 0;; ++p) {
    const std::vector<RecordRef>& bucket = buckets_[p];
    if (rest < bucket.size()) {
      *partition = static_cast<int>(p);
      return bucket[rest];
    }
    rest -= bucket.size();
  }
}

std::string_view KvBuffer::KeyAt(int64_t i) const {
  int partition = 0;
  return KeyOf(RefAt(i, &partition));
}

std::string_view KvBuffer::ValueAt(int64_t i) const {
  int partition = 0;
  return ValueOf(RefAt(i, &partition));
}

int KvBuffer::PartitionAt(int64_t i) const {
  int partition = 0;
  RefAt(i, &partition);
  return partition;
}

}  // namespace mrmb
