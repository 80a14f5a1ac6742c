#include "io/merge.h"

#include <utility>

#include "common/logging.h"
#include "io/byte_buffer.h"
#include "io/key_prefix.h"

namespace mrmb {

SegmentReader::SegmentReader(std::string_view data) : data_(data) {
  Decode();
}

SegmentReader::SegmentReader(std::string_view data, DataType key_type)
    : data_(data), validate_keys_(true), key_type_(key_type) {
  Decode();
}

void SegmentReader::Next() {
  MRMB_CHECK(valid_);
  Decode();
}

void SegmentReader::Decode() {
  if (pos_ >= data_.size()) {
    valid_ = false;
    key_ = {};
    value_ = {};
    return;
  }
  const auto fail = [this](const char* what) {
    valid_ = false;
    key_ = {};
    value_ = {};
    status_ = Status::DataLoss(std::string(what) + " at segment offset " +
                               std::to_string(pos_));
  };
  int64_t key_len = 0, value_len = 0;
  const auto* header = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
  if (data_.size() - pos_ >= 2 && header[0] < 0x80 && header[1] < 0x80) {
    // Both lengths are single-byte vints in 0..127: the common header.
    key_len = header[0];
    value_len = header[1];
    pos_ += 2;
  } else {
    size_t hdr = 0;
    if (!DecodeVarint64(data_.substr(pos_), &key_len, &hdr).ok()) {
      return fail("malformed key-length varint");
    }
    pos_ += hdr;
    if (!DecodeVarint64(data_.substr(pos_), &value_len, &hdr).ok()) {
      return fail("malformed value-length varint");
    }
    pos_ += hdr;
  }
  if (key_len < 0 || value_len < 0 ||
      static_cast<size_t>(key_len) > data_.size() - pos_ ||
      static_cast<size_t>(value_len) >
          data_.size() - pos_ - static_cast<size_t>(key_len)) {
    return fail("truncated record frame");
  }
  key_ = data_.substr(pos_, static_cast<size_t>(key_len));
  if (validate_keys_ && !KeyWireFormatValid(key_type_, key_)) {
    return fail("malformed key wire format");
  }
  pos_ += static_cast<size_t>(key_len);
  value_ = data_.substr(pos_, static_cast<size_t>(value_len));
  pos_ += static_cast<size_t>(value_len);
  valid_ = true;
}

// The tree is the implicit complete binary tree over 2k slots: leaves live
// at positions k..2k-1 (leaf i at k+i), internal nodes at 1..k-1, parent(p)
// = p/2. losers_[node] holds the leaf index that *lost* the match at that
// node; the overall winner is kept in winner_. Advancing the winner only
// replays the k+winner -> root path: one comparison per level against the
// stored losers, about half of what a binary-heap sift-down costs.
MergeIterator::MergeIterator(
    std::vector<std::unique_ptr<RecordStream>> inputs,
    const RawComparator* comparator)
    : inputs_(std::move(inputs)),
      comparator_(comparator),
      key_type_(comparator != nullptr ? comparator->type()
                                      : DataType::kBytesWritable),
      prefix_decisive_(comparator != nullptr && PrefixIsDecisive(key_type_)) {
  MRMB_CHECK(comparator_ != nullptr);
  const size_t k = inputs_.size();
  leaves_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    leaves_[i].stream = inputs_[i].get();
    if (!inputs_[i]->stable_views()) stable_views_ = false;
    RefreshLeaf(static_cast<int32_t>(i));
  }
  if (k == 1) {
    winner_ = 0;
  } else if (k > 1) {
    losers_.assign(k, -1);
    winner_ = InitSubtree(1);
  }
}

std::string_view MergeIterator::key() const {
  MRMB_CHECK(Valid());
  return leaves_[static_cast<size_t>(winner_)].key;
}

std::string_view MergeIterator::value() const {
  MRMB_CHECK(Valid());
  return leaves_[static_cast<size_t>(winner_)].stream->value();
}

void MergeIterator::Next() {
  MRMB_CHECK(Valid());
  Leaf& leaf = leaves_[static_cast<size_t>(winner_)];
  leaf.stream->Next();
  RefreshLeaf(winner_);
  if (!losers_.empty()) Replay(winner_);
}

Status MergeIterator::status() const {
  for (const std::unique_ptr<RecordStream>& input : inputs_) {
    Status status = input->status();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

bool MergeIterator::Beats(int32_t a, int32_t b) const {
  const Leaf& la = leaves_[static_cast<size_t>(a)];
  const Leaf& lb = leaves_[static_cast<size_t>(b)];
  if (!la.valid || !lb.valid) {
    // An exhausted stream is a +infinity key; two of them tie on index.
    if (la.valid != lb.valid) return la.valid;
    return a < b;
  }
  if (la.prefix != lb.prefix) return la.prefix < lb.prefix;
  if (!prefix_decisive_) {
    const int cmp = comparator_->Compare(la.key, lb.key);
    if (cmp != 0) return cmp < 0;
  }
  return a < b;
}

void MergeIterator::RefreshLeaf(int32_t leaf) {
  Leaf& l = leaves_[static_cast<size_t>(leaf)];
  if (l.stream->Valid()) {
    l.key = l.stream->key();
    l.prefix = NormalizedKeyPrefix(key_type_, l.key);
    l.valid = true;
  } else {
    l.key = {};
    l.prefix = 0;
    l.valid = false;
  }
}

int32_t MergeIterator::InitSubtree(size_t node) {
  const size_t k = leaves_.size();
  if (node >= k) return static_cast<int32_t>(node - k);  // a leaf slot
  const int32_t a = InitSubtree(2 * node);
  const int32_t b = InitSubtree(2 * node + 1);
  if (Beats(a, b)) {
    losers_[node] = b;
    return a;
  }
  losers_[node] = a;
  return b;
}

void MergeIterator::Replay(int32_t leaf) {
  const size_t k = leaves_.size();
  int32_t cur = leaf;
  for (size_t node = (k + static_cast<size_t>(leaf)) / 2; node >= 1;
       node /= 2) {
    if (Beats(losers_[node], cur)) std::swap(losers_[node], cur);
  }
  winner_ = cur;
}

GroupedIterator::GroupedIterator(RecordStream* stream,
                                 const RawComparator* comparator)
    : stream_(stream),
      comparator_(comparator),
      bytes_decide_equality_(comparator != nullptr &&
                             PrefixIsDecisive(comparator->type())),
      stable_views_(stream != nullptr && stream->stable_views()) {
  MRMB_CHECK(stream_ != nullptr);
  MRMB_CHECK(comparator_ != nullptr);
}

void GroupedIterator::PinGroupKey() {
  if (pinned_) return;
  owned_key_.assign(group_key_);
  group_key_ = owned_key_;
  pinned_ = true;
}

bool GroupedIterator::NextGroup() {
  if (in_group_) {
    // Caller abandoned the group mid-way: skip its remaining values.
    PinGroupKey();
    while (stream_->Valid() && InGroup(stream_->key())) {
      stream_->Next();
    }
    in_group_ = false;
  }
  if (!stream_->Valid()) return false;
  group_key_ = stream_->key();
  pinned_ = stable_views_;  // stable streams never invalidate the view
  in_group_ = true;
  first_value_pending_ = true;
  return true;
}

bool GroupedIterator::NextValue() {
  if (!in_group_) return false;
  if (first_value_pending_) {
    first_value_pending_ = false;
    return true;
  }
  PinGroupKey();
  stream_->Next();
  if (stream_->Valid() && InGroup(stream_->key())) {
    return true;
  }
  // Stream now rests on the next group's first record (or at end).
  in_group_ = false;
  return false;
}

}  // namespace mrmb
