#include "io/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/kv_buffer.h"

namespace mrmb {
namespace {

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

// Builds a framed single-partition segment from (key, value) pairs,
// sorting them first.
std::string FramedSegment(std::vector<std::pair<std::string, std::string>>
                              pairs,
                          bool sort = true) {
  if (sort) std::sort(pairs.begin(), pairs.end());
  std::string data;
  BufferWriter writer(&data);
  for (const auto& [key, value] : pairs) {
    const std::string k = WireBytes(key);
    const std::string v = WireBytes(value);
    writer.AppendVarint64(static_cast<int64_t>(k.size()));
    writer.AppendVarint64(static_cast<int64_t>(v.size()));
    writer.AppendRaw(k);
    writer.AppendRaw(v);
  }
  return data;
}

TEST(SegmentReaderTest, EmptySegmentIsInvalid) {
  SegmentReader reader("");
  EXPECT_FALSE(reader.Valid());
}

TEST(SegmentReaderTest, WalksRecords) {
  const std::string data =
      FramedSegment({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  SegmentReader reader(data);
  std::vector<std::string> keys;
  while (reader.Valid()) {
    BytesWritable key;
    BufferReader key_reader(reader.key());
    ASSERT_TRUE(key.Deserialize(&key_reader).ok());
    keys.push_back(key.bytes());
    reader.Next();
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SegmentReaderTest, NextPastEndDies) {
  SegmentReader reader(FramedSegment({{"a", "1"}}));
  reader.Next();
  EXPECT_FALSE(reader.Valid());
  EXPECT_DEATH({ reader.Next(); }, "");
}

TEST(SegmentReaderTest, TruncatedFrameIsDataLossNotFatal) {
  std::string data = FramedSegment({{"abc", "def"}});
  data.resize(data.size() - 2);
  SegmentReader reader(data);
  EXPECT_FALSE(reader.Valid());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentReaderTest, MalformedMidStreamStopsWithDataLoss) {
  // One good record, then garbage: the reader yields the good record and
  // then turns invalid with a DataLoss status instead of crashing.
  std::string data = FramedSegment({{"abc", "def"}});
  const size_t good = data.size();
  data += FramedSegment({{"ggg", "hhh"}});
  data.resize(good + 3);  // truncate the second frame
  SegmentReader reader(data);
  ASSERT_TRUE(reader.Valid());
  EXPECT_TRUE(reader.status().ok());
  reader.Next();
  EXPECT_FALSE(reader.Valid());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentReaderTest, KeyValidationRejectsReframedGarbage) {
  // A bit flip in a key-length varint can re-frame the stream into records
  // that still fit the slice but whose keys are the wrong shape. The
  // type-aware reader refuses them; the plain reader (used on trusted,
  // locally-produced bytes) does not look inside the key.
  std::string data = FramedSegment({{"abcd", "wxyz"}});
  data[0] ^= 0x04;  // grow the key length, swallowing value-header bytes
  SegmentReader trusting(data);
  EXPECT_TRUE(trusting.Valid() || !trusting.status().ok());
  SegmentReader validating(data, DataType::kBytesWritable);
  EXPECT_FALSE(validating.Valid());
  EXPECT_EQ(validating.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentReaderTest, KeyValidationAcceptsWellFormedRecords) {
  const std::string data = FramedSegment({{"abc", "1"}, {"xyz", "2"}});
  SegmentReader reader(data, DataType::kBytesWritable);
  int records = 0;
  while (reader.Valid()) {
    ++records;
    reader.Next();
  }
  EXPECT_EQ(records, 2);
  EXPECT_TRUE(reader.status().ok());
}

TEST(MergeIteratorTest, EmptyInputs) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  EXPECT_FALSE(merged.Valid());
}

TEST(MergeIteratorTest, SingleStreamPassesThrough) {
  const std::string data = FramedSegment({{"a", "1"}, {"b", "2"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(data));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  int count = 0;
  while (merged.Valid()) {
    ++count;
    merged.Next();
  }
  EXPECT_EQ(count, 2);
}

TEST(MergeIteratorTest, MergesSortedStreams) {
  const std::string seg1 = FramedSegment({{"a", "1"}, {"d", "4"}});
  const std::string seg2 = FramedSegment({{"b", "2"}, {"e", "5"}});
  const std::string seg3 = FramedSegment({{"c", "3"}, {"f", "6"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(seg1));
  inputs.push_back(std::make_unique<SegmentReader>(seg2));
  inputs.push_back(std::make_unique<SegmentReader>(seg3));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  std::string order;
  while (merged.Valid()) {
    BytesWritable key;
    BufferReader key_reader(merged.key());
    ASSERT_TRUE(key.Deserialize(&key_reader).ok());
    order += key.bytes();
    merged.Next();
  }
  EXPECT_EQ(order, "abcdef");
}

TEST(MergeIteratorTest, SkipsEmptyStreams) {
  // The reader views its slice, so the segment must outlive the merge.
  const std::string segment = FramedSegment({{"x", "1"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(""));
  inputs.push_back(std::make_unique<SegmentReader>(segment));
  inputs.push_back(std::make_unique<SegmentReader>(""));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(merged.Valid());
  merged.Next();
  EXPECT_FALSE(merged.Valid());
}

TEST(MergeIteratorTest, EqualKeysBreakTiesByInputIndex) {
  // Both streams hold key "k"; stream 0's record must come first.
  std::vector<std::unique_ptr<RecordStream>> inputs;
  const std::string seg0 = FramedSegment({{"k", "from0"}});
  const std::string seg1 = FramedSegment({{"k", "from1"}});
  inputs.push_back(std::make_unique<SegmentReader>(seg0));
  inputs.push_back(std::make_unique<SegmentReader>(seg1));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(merged.Valid());
  EXPECT_EQ(merged.value(), WireBytes("from0"));
  merged.Next();
  ASSERT_TRUE(merged.Valid());
  EXPECT_EQ(merged.value(), WireBytes("from1"));
}

class MergePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergePropertyTest, MergeEqualsGlobalSort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13);
  const int num_streams = static_cast<int>(rng.UniformRange(1, 8));
  std::vector<std::string> all_keys;
  std::vector<std::string> segments;
  for (int s = 0; s < num_streams; ++s) {
    std::vector<std::pair<std::string, std::string>> pairs;
    const int records = static_cast<int>(rng.UniformRange(0, 50));
    for (int r = 0; r < records; ++r) {
      std::string key(rng.UniformRange(1, 10), '\0');
      for (char& c : key) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      all_keys.push_back(key);
      pairs.emplace_back(std::move(key), "v");
    }
    segments.push_back(FramedSegment(std::move(pairs)));
  }
  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (const std::string& segment : segments) {
    inputs.push_back(std::make_unique<SegmentReader>(segment));
  }
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  std::sort(all_keys.begin(), all_keys.end());
  size_t i = 0;
  while (merged.Valid()) {
    ASSERT_LT(i, all_keys.size());
    EXPECT_EQ(merged.key(), WireBytes(all_keys[i]));
    merged.Next();
    ++i;
  }
  EXPECT_EQ(i, all_keys.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest, ::testing::Range(1, 21));

// Wide fan-in stress for the loser tree: a non-power-of-two stream count
// (internal nodes then form a ragged tree), staggered stream lengths
// including empty and single-record streams, and duplicated keys everywhere.
// Checks total order, record conservation, and that equal keys drain in
// input-index order even as streams exhaust mid-merge.
TEST(MergeIteratorTest, ManyStreamsLoserTreeStress) {
  constexpr int kStreams = 37;
  Rng rng(0xD1CE);
  std::vector<std::string> segments;
  std::vector<std::pair<std::string, int>> expected;  // (key, stream)
  for (int s = 0; s < kStreams; ++s) {
    // Lengths 0, 1, 2, ... staggered so early streams exhaust first.
    const int records =
        s % 5 == 0 ? 0 : static_cast<int>(rng.UniformRange(1, 3 * s + 2));
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int r = 0; r < records; ++r) {
      // A tiny key alphabet forces heavy duplication across streams.
      const std::string key(1 + rng.Uniform(3),
                            static_cast<char>('a' + rng.Uniform(4)));
      pairs.emplace_back(key, std::to_string(s));
    }
    std::sort(pairs.begin(), pairs.end());
    for (const auto& [key, value] : pairs) expected.emplace_back(key, s);
    segments.push_back(FramedSegment(std::move(pairs)));
  }
  // Equal keys must surface in stream order: stable-sort the expectation by
  // key with the stream index as tiebreaker.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first ||
                            (a.first == b.first && a.second < b.second);
                   });

  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (const std::string& segment : segments) {
    inputs.push_back(std::make_unique<SegmentReader>(segment));
  }
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  size_t i = 0;
  while (merged.Valid()) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(merged.key(), WireBytes(expected[i].first)) << "record " << i;
    EXPECT_EQ(merged.value(), WireBytes(std::to_string(expected[i].second)))
        << "record " << i;
    merged.Next();
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  EXPECT_TRUE(merged.status().ok());
}

TEST(GroupedIteratorTest, GroupsEqualKeys) {
  const std::string data = FramedSegment(
      {{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"},
       {"c", "6"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  std::map<std::string, int> value_counts;
  while (groups.NextGroup()) {
    BytesWritable key;
    BufferReader key_reader(groups.group_key());
    ASSERT_TRUE(key.Deserialize(&key_reader).ok());
    int count = 0;
    while (groups.NextValue()) ++count;
    value_counts[key.bytes()] = count;
  }
  EXPECT_EQ(value_counts.size(), 3u);
  EXPECT_EQ(value_counts["a"], 2);
  EXPECT_EQ(value_counts["b"], 1);
  EXPECT_EQ(value_counts["c"], 3);
}

TEST(GroupedIteratorTest, AbandoningGroupSkipsItsValues) {
  const std::string data =
      FramedSegment({{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());  // group "a", values untouched
  ASSERT_TRUE(groups.NextGroup());  // must land on "b"
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
  ASSERT_TRUE(groups.NextValue());
  EXPECT_EQ(groups.value(), WireBytes("4"));
  EXPECT_FALSE(groups.NextValue());
  EXPECT_FALSE(groups.NextGroup());
}

TEST(GroupedIteratorTest, PartiallyConsumedGroup) {
  const std::string data =
      FramedSegment({{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  ASSERT_TRUE(groups.NextValue());  // consume just one of three
  ASSERT_TRUE(groups.NextGroup());
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
}

TEST(GroupedIteratorTest, EmptyStream) {
  SegmentReader reader("");
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  EXPECT_FALSE(groups.NextGroup());
  EXPECT_FALSE(groups.NextValue());
}

TEST(GroupedIteratorTest, SingleGroupSingleValue) {
  const std::string data = FramedSegment({{"only", "v"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  ASSERT_TRUE(groups.NextValue());
  EXPECT_FALSE(groups.NextValue());
  EXPECT_FALSE(groups.NextGroup());
}

TEST(GroupedIteratorTest, WorksOverMergeIterator) {
  // Equal keys across streams group together.
  const std::string seg1 = FramedSegment({{"k1", "a"}, {"k2", "b"}});
  const std::string seg2 = FramedSegment({{"k1", "c"}, {"k3", "d"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(seg1));
  inputs.push_back(std::make_unique<SegmentReader>(seg2));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  GroupedIterator groups(&merged, ComparatorFor(DataType::kBytesWritable));
  int group_count = 0;
  int k1_values = 0;
  while (groups.NextGroup()) {
    ++group_count;
    const bool is_k1 = groups.group_key() == WireBytes("k1");
    while (groups.NextValue()) {
      if (is_k1) ++k1_values;
    }
  }
  EXPECT_EQ(group_count, 3);
  EXPECT_EQ(k1_values, 2);
}

// A stream whose key/value views die on every Next(): each record is
// re-buffered into the same storage, the worst case the stable_views()
// protocol exists for.
class RebufferingStream final : public RecordStream {
 public:
  explicit RebufferingStream(
      std::vector<std::pair<std::string, std::string>> records)
      : records_(std::move(records)) {}

  bool Valid() const override { return index_ < records_.size(); }
  std::string_view key() const override { return key_; }
  std::string_view value() const override { return value_; }
  void Next() override {
    ++index_;
    Load();
  }
  Status status() const override { return status_; }
  // stable_views() deliberately left at the base-class default (false).

  void Start() { Load(); }

 private:
  void Load() {
    if (!Valid()) {
      // Poison the storage so a dangling view is caught, not silently OK.
      key_.assign("XX");
      value_.assign("XX");
      return;
    }
    key_.assign(WireBytes(records_[index_].first));
    value_.assign(WireBytes(records_[index_].second));
  }

  std::vector<std::pair<std::string, std::string>> records_;
  size_t index_ = 0;
  std::string key_;
  std::string value_;
  Status status_;
};

TEST(GroupedIteratorTest, StableInputKeepsGroupKeyAsBorrowedView) {
  // SegmentReader promises stable views, so the group key must stay a
  // zero-copy pointer into the caller's segment across NextValue calls.
  const std::string data =
      FramedSegment({{"a", "1"}, {"a", "2"}, {"b", "3"}});
  SegmentReader reader(data);
  ASSERT_TRUE(reader.stable_views());
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  const char* lo = data.data();
  const char* hi = data.data() + data.size();
  EXPECT_TRUE(groups.group_key().data() >= lo &&
              groups.group_key().data() < hi);
  ASSERT_TRUE(groups.NextValue());
  ASSERT_TRUE(groups.NextValue());
  // Still borrowed, still correct, after the stream advanced twice.
  EXPECT_TRUE(groups.group_key().data() >= lo &&
              groups.group_key().data() < hi);
  EXPECT_EQ(groups.group_key(), WireBytes("a"));
}

TEST(GroupedIteratorTest, UnstableInputCopiesKeyBeforeStreamAdvances) {
  RebufferingStream stream(
      {{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  stream.Start();
  ASSERT_FALSE(stream.stable_views());
  GroupedIterator groups(&stream, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  EXPECT_EQ(groups.group_key(), WireBytes("a"));
  int count = 0;
  while (groups.NextValue()) {
    ++count;
    // The underlying storage now holds a later record (or poison), but the
    // group key was pinned before the first advance.
    EXPECT_EQ(groups.group_key(), WireBytes("a")) << "value " << count;
  }
  EXPECT_EQ(count, 3);
  ASSERT_TRUE(groups.NextGroup());
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
  ASSERT_TRUE(groups.NextValue());
  EXPECT_EQ(groups.value(), WireBytes("4"));
}

TEST(GroupedIteratorTest, UnstableInputAbandonedGroupStillSkipsCorrectly) {
  RebufferingStream stream({{"a", "1"}, {"a", "2"}, {"b", "3"}});
  stream.Start();
  GroupedIterator groups(&stream, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());  // "a", abandoned unconsumed
  ASSERT_TRUE(groups.NextGroup());  // must skip a's values and land on "b"
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
  ASSERT_TRUE(groups.NextValue());
  EXPECT_EQ(groups.value(), WireBytes("3"));
  EXPECT_FALSE(groups.NextGroup());
}

}  // namespace
}  // namespace mrmb
