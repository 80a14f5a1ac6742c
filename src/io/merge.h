// Record streams and the reduce-side k-way merge.
//
// SegmentReader walks IFile-framed records (vint key length, vint value
// length, key, value) in a byte slice — the format KvBuffer spills and the
// shuffle moves. MergeIterator merges any number of individually-sorted
// streams into one sorted stream with a tournament loser tree, like
// Hadoop's Merger but with roughly half the comparisons of its PriorityQueue:
// advancing the winner replays exactly one root-to-leaf path (one comparison
// per level) instead of a binary-heap sift-down (up to two per level), and
// every leaf caches its stream's current key and 8-byte normalized prefix so
// most of those comparisons are a single uint64_t compare. GroupedIterator
// layers reduce-style grouping (one (key, values[]) group per distinct key)
// on top of a sorted stream.

#ifndef MRMB_IO_MERGE_H_
#define MRMB_IO_MERGE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/comparator.h"

namespace mrmb {

// Forward-only stream of (key, value) records in serialized form.
class RecordStream {
 public:
  virtual ~RecordStream() = default;

  // True while positioned on a record.
  virtual bool Valid() const = 0;
  // Current record; views are valid until Next().
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
  // Advances to the next record.
  virtual void Next() = 0;
  // OK while the stream ended cleanly (or has not ended); a DataLoss-style
  // error when it stopped because the underlying bytes were malformed.
  // Callers that care about integrity must check this once Valid() turns
  // false.
  virtual Status status() const { return Status::OK(); }
  // True when key()/value() views stay valid across Next() for the stream's
  // whole lifetime (records decoded in place out of stable storage).
  // Consumers may then hold a key across an advance without copying it.
  virtual bool stable_views() const { return false; }
};

// Streams framed records out of a byte slice. The slice must outlive the
// reader. Malformed framing does not abort: the reader becomes invalid and
// status() carries a DataLoss error, so a corrupted shuffle segment is a
// recoverable condition for the task-attempt engine, not a crash.
//
// The two-argument form additionally validates each key's wire format
// against `key_type` (see KeyWireFormatValid). A bit flip in a length
// varint can re-frame the stream into records whose keys are garbage of
// the wrong shape; without this check those keys would reach the key-
// prefix and comparator code, whose preconditions they violate. Readers
// fed from untrusted bytes (anything that crossed the simulated shuffle)
// must use this form.
class SegmentReader final : public RecordStream {
 public:
  explicit SegmentReader(std::string_view data);
  SegmentReader(std::string_view data, DataType key_type);

  bool Valid() const override { return valid_; }
  std::string_view key() const override { return key_; }
  std::string_view value() const override { return value_; }
  void Next() override;
  Status status() const override { return status_; }
  // Records are views into the caller's slice, never re-buffered.
  bool stable_views() const override { return true; }

 private:
  void Decode();

  std::string_view data_;
  size_t pos_ = 0;
  bool valid_ = false;
  bool validate_keys_ = false;
  DataType key_type_ = DataType::kBytesWritable;
  std::string_view key_;
  std::string_view value_;
  Status status_;
};

// Merges sorted input streams into one sorted stream (loser tree).
class MergeIterator final : public RecordStream {
 public:
  MergeIterator(std::vector<std::unique_ptr<RecordStream>> inputs,
                const RawComparator* comparator);

  bool Valid() const override {
    return winner_ >= 0 && leaves_[static_cast<size_t>(winner_)].valid;
  }
  std::string_view key() const override;
  std::string_view value() const override;
  void Next() override;
  // First non-OK status of any input stream (an exhausted corrupt input
  // turns into an infinite-key leaf; this is how the corruption surfaces).
  Status status() const override;
  // Stable iff every input has stable views: the merge hands out the
  // winning leaf's views untouched.
  bool stable_views() const override { return stable_views_; }

 private:
  // One tournament contestant: a stream plus its cached current key and
  // normalized prefix. Exhausted streams stay in the tree and compare as
  // +infinity, so the tree shape never changes mid-merge.
  struct Leaf {
    RecordStream* stream = nullptr;
    std::string_view key;
    uint64_t prefix = 0;
    bool valid = false;
  };

  // True if leaf `a` wins (sorts before) leaf `b`; ties break on the lower
  // input index for determinism.
  bool Beats(int32_t a, int32_t b) const;
  // Re-caches leaf state after its stream advanced (or at construction).
  void RefreshLeaf(int32_t leaf);
  // Builds the loser tree under internal node `node`; returns the subtree's
  // winner and fills losers_ along the way.
  int32_t InitSubtree(size_t node);
  // Replays leaf `leaf`'s root path after its key changed.
  void Replay(int32_t leaf);

  std::vector<std::unique_ptr<RecordStream>> inputs_;
  const RawComparator* comparator_;
  DataType key_type_;
  bool prefix_decisive_;
  std::vector<Leaf> leaves_;     // k contestants
  std::vector<int32_t> losers_;  // internal nodes 1..k-1 (index 0 unused)
  int32_t winner_ = -1;
  bool stable_views_ = true;
};

// Iterates groups of equal keys over a sorted stream. Usage:
//   GroupedIterator groups(&stream, comparator);
//   while (groups.NextGroup()) {
//     use groups.group_key();
//     while (groups.NextValue()) use groups.value();
//   }
class GroupedIterator {
 public:
  GroupedIterator(RecordStream* stream, const RawComparator* comparator);

  // Advances to the next distinct key. Returns false when exhausted. Any
  // unconsumed values of the previous group are skipped.
  bool NextGroup();
  // The current group's key (serialized form).
  std::string_view group_key() const { return group_key_; }
  // Advances to the next value within the group; false at group end.
  bool NextValue();
  std::string_view value() const { return stream_->value(); }

 private:
  // Ensures group_key_ survives the next stream advance. A no-op for
  // streams with stable views (the common reduce path: a MergeIterator over
  // SegmentReaders), so those groups never copy the key; unstable streams
  // copy into owned_key_ at most once per group, and only for groups that
  // actually span more than one record.
  void PinGroupKey();
  // True if `key` belongs to the current group. For well-formed keys of a
  // prefix-decisive (fixed-width) type byte equality is exactly comparator
  // equality, so the comparator call is skipped.
  bool InGroup(std::string_view key) const {
    return bytes_decide_equality_
               ? key == group_key_
               : comparator_->Compare(key, group_key_) == 0;
  }

  RecordStream* stream_;
  const RawComparator* comparator_;
  const bool bytes_decide_equality_;
  const bool stable_views_;
  std::string_view group_key_;
  std::string owned_key_;  // fallback storage when views are unstable
  bool pinned_ = false;
  bool in_group_ = false;
  bool first_value_pending_ = false;
};

}  // namespace mrmb

#endif  // MRMB_IO_MERGE_H_
