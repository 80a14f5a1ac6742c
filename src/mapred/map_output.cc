#include "mapred/map_output.h"

#include <memory>
#include <span>

#include "common/logging.h"
#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/key_prefix.h"
#include "io/merge.h"

namespace mrmb {

Result<MergedRun> MergeFramedRuns(const std::vector<FramedRun>& runs,
                                  const RawComparator* comparator,
                                  std::vector<int>* corrupt_sources) {
  MergedRun out;
  size_t total = 0;
  for (const FramedRun& run : runs) total += run.data.size();
  out.data.reserve(total);
  BufferWriter writer(&out.data);

  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.reserve(runs.size());
  for (const FramedRun& run : runs) {
    // Fold inputs crossed the shuffle: validate key framing so a bit flip
    // surfaces as this run's DataLoss instead of feeding the comparator
    // garbage.
    inputs.push_back(
        std::make_unique<SegmentReader>(run.data, comparator->type()));
  }
  // Keep raw pointers: MergeIterator takes ownership but we still need to
  // ask each input for its status to blame the right producer.
  std::vector<RecordStream*> streams;
  streams.reserve(inputs.size());
  for (const auto& input : inputs) streams.push_back(input.get());

  MergeIterator merged(std::move(inputs), comparator);
  while (merged.Valid()) {
    const std::string_view key = merged.key();
    const std::string_view value = merged.value();
    writer.AppendVarint64(static_cast<int64_t>(key.size()));
    writer.AppendVarint64(static_cast<int64_t>(value.size()));
    writer.AppendRaw(key);
    writer.AppendRaw(value);
    out.records += 1;
    merged.Next();
  }
  Status status = merged.status();
  if (!status.ok()) {
    if (corrupt_sources != nullptr) {
      for (size_t i = 0; i < streams.size(); ++i) {
        if (!streams[i]->status().ok()) {
          corrupt_sources->push_back(runs[i].source_map);
        }
      }
    }
    return status;
  }
  return out;
}

Result<SpillSegment> MergeSegments(
    const std::vector<const SpillSegment*>& segments,
    const RawComparator* comparator, bool verify_checksums) {
  // Malformed inputs surface as Status, never an abort: segments reaching a
  // merge can now originate on disk (io/spill_store.h), where damage is a
  // recoverable event for the caller's retry machinery.
  if (segments.empty()) {
    return Status::InvalidArgument("MergeSegments needs at least one segment");
  }
  const size_t num_partitions = segments[0]->partitions.size();
  int64_t total_bytes = 0;
  for (const SpillSegment* segment : segments) {
    if (segment->partitions.size() != num_partitions) {
      return Status::InvalidArgument(StringPrintf(
          "cannot merge segments with mismatched partition counts (%zu vs "
          "%zu)",
          segment->partitions.size(), num_partitions));
    }
    total_bytes += segment->total_bytes();
  }

  SpillSegment out;
  out.data.reserve(static_cast<size_t>(total_bytes));
  out.partitions.resize(num_partitions);

  for (size_t p = 0; p < num_partitions; ++p) {
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = static_cast<int64_t>(out.data.size());
    std::vector<FramedRun> runs;
    runs.reserve(segments.size());
    for (const SpillSegment* segment : segments) {
      if (verify_checksums) {
        MRMB_RETURN_IF_ERROR(
            VerifySegmentPartition(*segment, static_cast<int>(p)));
      }
      runs.push_back({segment->PartitionData(static_cast<int>(p)), -1});
    }
    MRMB_ASSIGN_OR_RETURN(MergedRun merged,
                          MergeFramedRuns(runs, comparator));
    out.data.append(merged.data);
    range.records = merged.records;
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
  }
  SealSegment(&out);
  return out;
}

Result<SpillSegment> CompressSegment(MapOutputCodec codec,
                                     const SpillSegment& segment) {
  MRMB_CHECK(codec != MapOutputCodec::kNone);
  SpillSegment out;
  out.partitions.resize(segment.partitions.size());
  std::string frame;
  for (size_t p = 0; p < segment.partitions.size(); ++p) {
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = static_cast<int64_t>(out.data.size());
    MRMB_RETURN_IF_ERROR(
        BlockCompress(codec, segment.PartitionData(static_cast<int>(p)),
                      &frame));
    out.data.append(frame);
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
    range.records = segment.partitions[p].records;
    range.raw_length = segment.partitions[p].length;
  }
  SealSegment(&out);
  return out;
}

namespace {

// ReduceContext that frames emitted records into a segment under
// construction.
class CombineContext final : public ReduceContext {
 public:
  CombineContext(const JobConf& conf, int task_id, BufferWriter* writer,
                 SpillSegment::PartitionRange* range)
      : conf_(conf), task_id_(task_id), writer_(writer), range_(range) {}

  void Emit(std::string_view key, std::string_view value) override {
    writer_->AppendVarint64(static_cast<int64_t>(key.size()));
    writer_->AppendVarint64(static_cast<int64_t>(value.size()));
    writer_->AppendRaw(key);
    writer_->AppendRaw(value);
    range_->records += 1;
  }

  const JobConf& conf() const override { return conf_; }
  int task_id() const override { return task_id_; }

 private:
  const JobConf& conf_;
  int task_id_;
  BufferWriter* writer_;
  SpillSegment::PartitionRange* range_;
};

// Hands one key group's values to the combiner straight out of a sorted
// collect buffer.
class BufferValues final : public ValueIterator {
 public:
  BufferValues(const KvBuffer& buffer, const KvBuffer::RecordRef* begin,
               const KvBuffer::RecordRef* end)
      : buffer_(buffer), next_(begin), end_(end) {}
  bool Next() override {
    if (next_ == end_) return false;
    value_ = buffer_.ValueOf(*next_++);
    return true;
  }
  std::string_view value() const override { return value_; }

 private:
  const KvBuffer& buffer_;
  const KvBuffer::RecordRef* next_;
  const KvBuffer::RecordRef* end_;
  std::string_view value_;
};

// Adapts a GroupedIterator's values to the ValueIterator interface.
class CombineValues final : public ValueIterator {
 public:
  explicit CombineValues(GroupedIterator* groups) : groups_(groups) {}
  bool Next() override { return groups_->NextValue(); }
  std::string_view value() const override { return groups_->value(); }

 private:
  GroupedIterator* groups_;
};

}  // namespace

Result<MergedRun> CombineSortedRun(std::string_view run,
                                   const RawComparator* comparator,
                                   Reducer* combiner, const JobConf& conf,
                                   int task_id) {
  MRMB_CHECK(combiner != nullptr);
  MergedRun out;
  out.data.reserve(run.size());
  BufferWriter writer(&out.data);
  // CombineContext counts emits through a PartitionRange; a scratch range
  // serves as the counter for a stand-alone run.
  SpillSegment::PartitionRange counter;
  CombineContext context(conf, task_id, &writer, &counter);
  SegmentReader reader(run, comparator->type());
  GroupedIterator groups(&reader, comparator);
  while (groups.NextGroup()) {
    CombineValues values(&groups);
    combiner->Reduce(groups.group_key(), &values, &context);
  }
  MRMB_RETURN_IF_ERROR(reader.status());
  out.records = counter.records;
  return out;
}

Result<SpillSegment> CombineBuffer(const KvBuffer& buffer, Reducer* combiner,
                                   const JobConf& conf, int task_id) {
  MRMB_CHECK(combiner != nullptr);
  MRMB_CHECK(buffer.sorted()) << "CombineBuffer requires Sort()";
  const DataType type = buffer.key_type();
  const RawComparator* comparator = ComparatorFor(type);
  // Fixed-width keys (Int/Long/Null) are valid iff they have the type's
  // length, and two valid ones are equal iff their prefixes are: a group is
  // a run of equal prefix and key length behind a validated head. Other
  // types validate every key and break prefix ties with the comparator,
  // exactly like GroupedIterator.
  const bool prefix_decides = PrefixIsDecisive(type);
  const auto malformed = [&](std::string_view key) {
    return Status::InvalidArgument(StringPrintf(
        "map task %d emitted a %zu-byte key that is not a well-formed %s",
        task_id, key.size(), DataTypeName(type)));
  };
  SpillSegment out;
  out.partitions.resize(static_cast<size_t>(buffer.num_partitions()));
  BufferWriter writer(&out.data);
  for (size_t p = 0; p < out.partitions.size(); ++p) {
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = static_cast<int64_t>(out.data.size());
    CombineContext context(conf, task_id, &writer, &range);
    const std::span<const KvBuffer::RecordRef> refs =
        buffer.PartitionRecords(static_cast<int>(p));
    const KvBuffer::RecordRef* group = refs.data();
    const KvBuffer::RecordRef* const end = group + refs.size();
    while (group != end) {
      const std::string_view key = buffer.KeyOf(*group);
      if (!KeyWireFormatValid(type, key)) return malformed(key);
      const KvBuffer::RecordRef* next = group + 1;
      for (; next != end && next->key_prefix == group->key_prefix; ++next) {
        if (prefix_decides) {
          if (next->key_len != group->key_len) break;
          continue;
        }
        const std::string_view next_key = buffer.KeyOf(*next);
        if (!KeyWireFormatValid(type, next_key)) return malformed(next_key);
        if (comparator->Compare(next_key, key) != 0) break;
      }
      BufferValues values(buffer, group, next);
      combiner->Reduce(key, &values, &context);
      group = next;
    }
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
  }
  SealSegment(&out);
  return out;
}

SpillSegment CombineSegment(const SpillSegment& segment,
                            const RawComparator* comparator,
                            Reducer* combiner, const JobConf& conf,
                            int task_id) {
  MRMB_CHECK(combiner != nullptr);
  SpillSegment out;
  out.partitions.resize(segment.partitions.size());
  for (size_t p = 0; p < segment.partitions.size(); ++p) {
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = static_cast<int64_t>(out.data.size());
    Result<MergedRun> combined =
        CombineSortedRun(segment.PartitionData(static_cast<int>(p)),
                         comparator, combiner, conf, task_id);
    // The input was just built and sealed in RAM; malformed framing here is
    // a framework bug, not a recoverable data fault.
    MRMB_CHECK(combined.ok());
    out.data.append(combined->data);
    range.records = combined->records;
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
  }
  SealSegment(&out);
  return out;
}

}  // namespace mrmb
