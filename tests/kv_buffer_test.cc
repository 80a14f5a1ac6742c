#include "io/kv_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/comparator.h"
#include "io/key_prefix.h"
#include "io/merge.h"

namespace mrmb {
namespace {

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

TEST(KvBufferTest, AppendAndReadBack) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  ASSERT_TRUE(buffer.Append(0, WireBytes("k1"), WireBytes("v1")));
  ASSERT_TRUE(buffer.Append(1, WireBytes("k2"), WireBytes("v2")));
  EXPECT_EQ(buffer.records(), 2);
  EXPECT_EQ(buffer.PartitionAt(0), 0);
  EXPECT_EQ(buffer.PartitionAt(1), 1);
  EXPECT_EQ(buffer.KeyAt(0), WireBytes("k1"));
  EXPECT_EQ(buffer.ValueAt(1), WireBytes("v2"));
}

TEST(KvBufferTest, CapacityBoundsAppends) {
  // Records of ~14 bytes (2 frame + 6 key + 6 value); capacity 40 fits 2.
  KvBuffer buffer(DataType::kBytesWritable, 1, 40);
  EXPECT_TRUE(buffer.Append(0, WireBytes("aa"), WireBytes("bb")));
  EXPECT_TRUE(buffer.Append(0, WireBytes("cc"), WireBytes("dd")));
  EXPECT_FALSE(buffer.Append(0, WireBytes("ee"), WireBytes("ff")));
  EXPECT_EQ(buffer.records(), 2);
  buffer.Clear();
  EXPECT_EQ(buffer.records(), 0);
  EXPECT_EQ(buffer.bytes_used(), 0u);
  EXPECT_TRUE(buffer.Append(0, WireBytes("ee"), WireBytes("ff")));
}

TEST(KvBufferTest, OversizedRecordIsRejectedNotFatal) {
  // A record that can never fit even an empty buffer is rejected (the
  // runner surfaces ResourceExhausted); Fits() distinguishes it from an
  // ordinary buffer-full condition that a spill would cure.
  KvBuffer buffer(DataType::kBytesWritable, 1, 16);
  const std::string huge = WireBytes(std::string(100, 'x'));
  EXPECT_FALSE(buffer.Fits(huge, WireBytes("v")));
  EXPECT_FALSE(buffer.Append(0, huge, WireBytes("v")));
  EXPECT_EQ(buffer.records(), 0);
  // The buffer stays usable for records that do fit.
  EXPECT_TRUE(buffer.Fits(WireBytes("k"), WireBytes("v")));
  EXPECT_TRUE(buffer.Append(0, WireBytes("k"), WireBytes("v")));
}

TEST(KvBufferTest, SortOrdersByPartitionThenKey) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  ASSERT_TRUE(buffer.Append(1, WireBytes("b"), WireBytes("1")));
  ASSERT_TRUE(buffer.Append(0, WireBytes("z"), WireBytes("2")));
  ASSERT_TRUE(buffer.Append(1, WireBytes("a"), WireBytes("3")));
  ASSERT_TRUE(buffer.Append(0, WireBytes("a"), WireBytes("4")));
  buffer.Sort();
  EXPECT_EQ(buffer.PartitionAt(0), 0);
  EXPECT_EQ(buffer.KeyAt(0), WireBytes("a"));
  EXPECT_EQ(buffer.KeyAt(1), WireBytes("z"));
  EXPECT_EQ(buffer.PartitionAt(2), 1);
  EXPECT_EQ(buffer.KeyAt(2), WireBytes("a"));
  EXPECT_EQ(buffer.KeyAt(3), WireBytes("b"));
}

TEST(KvBufferTest, SortIsStableForEqualKeys) {
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  // Build values with += rather than `"v" + std::to_string(i)`: GCC 12's
  // -Werror=restrict false-positives on operator+(const char*, string&&)
  // (GCC bug 105651) when it gets inlined here.
  for (int i = 0; i < 5; ++i) {
    std::string value = "v";
    value += std::to_string(i);
    ASSERT_TRUE(buffer.Append(0, WireBytes("same"), WireBytes(value)));
  }
  buffer.Sort();
  for (int i = 0; i < 5; ++i) {
    std::string value = "v";
    value += std::to_string(i);
    EXPECT_EQ(buffer.ValueAt(i), WireBytes(value));
  }
}

TEST(KvBufferTest, ToSpillPartitionRanges) {
  KvBuffer buffer(DataType::kBytesWritable, 3, 1 << 20);
  ASSERT_TRUE(buffer.Append(2, WireBytes("x"), WireBytes("1")));
  ASSERT_TRUE(buffer.Append(0, WireBytes("y"), WireBytes("2")));
  ASSERT_TRUE(buffer.Append(2, WireBytes("w"), WireBytes("3")));
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  ASSERT_EQ(spill.partitions.size(), 3u);
  EXPECT_EQ(spill.partitions[0].records, 1);
  EXPECT_EQ(spill.partitions[1].records, 0);
  EXPECT_EQ(spill.partitions[1].length, 0);
  EXPECT_EQ(spill.partitions[2].records, 2);
  EXPECT_EQ(spill.total_records(), 3);
  EXPECT_EQ(spill.total_bytes(), static_cast<int64_t>(spill.data.size()));

  // Partition 2's data decodes to its two records in key order.
  SegmentReader reader(spill.PartitionData(2));
  ASSERT_TRUE(reader.Valid());
  EXPECT_EQ(reader.key(), WireBytes("w"));
  reader.Next();
  ASSERT_TRUE(reader.Valid());
  EXPECT_EQ(reader.key(), WireBytes("x"));
  reader.Next();
  EXPECT_FALSE(reader.Valid());
}

TEST(KvBufferTest, ToSpillWithoutSortDies) {
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  ASSERT_TRUE(buffer.Append(0, WireBytes("k"), WireBytes("v")));
  EXPECT_DEATH({ buffer.ToSpill(); }, "Sort");
}

TEST(KvBufferTest, EmptyBufferSpillsEmptySegment) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  EXPECT_EQ(spill.total_records(), 0);
  EXPECT_EQ(spill.total_bytes(), 0);
  EXPECT_TRUE(spill.PartitionData(0).empty());
  EXPECT_TRUE(spill.PartitionData(1).empty());
}

TEST(KvBufferTest, BytesUsedTracksFraming) {
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  const std::string key = WireBytes("kk");   // 6 bytes
  const std::string value = WireBytes("vv");  // 6 bytes
  ASSERT_TRUE(buffer.Append(0, key, value));
  // 1-byte vint for each length (6, 6) + payloads.
  EXPECT_EQ(buffer.bytes_used(), 14u);
}

// Frames one record the way SegmentReader decodes it, independently of
// KvBuffer::Append.
std::string Frame(const std::string& key, const std::string& value) {
  BufferWriter writer;
  writer.AppendVarint64(static_cast<int64_t>(key.size()));
  writer.AppendVarint64(static_cast<int64_t>(value.size()));
  writer.AppendRaw(key);
  writer.AppendRaw(value);
  return std::string(writer.data());
}

TEST(KvBufferTest, ArenaGrowsPast16MiBWithoutChangingBytes) {
  // The arena starts at 16 MiB; ~20 MiB of records make it grow and copy
  // what it holds.
  constexpr size_t kCapacity = size_t{24} << 20;
  KvBuffer buffer(DataType::kBytesWritable, 1, kCapacity);
  constexpr int kRecords = 2000;
  std::string expected;
  for (int i = 0; i < kRecords; ++i) {
    // Zero-padded keys arrive in key order, so sorting keeps arrival order.
    std::string id = std::to_string(i);
    id.insert(0, 6 - id.size(), '0');
    const std::string key = WireBytes(id);
    const std::string value =
        WireBytes(std::string(10 << 10, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(buffer.Append(0, key, value)) << i;
    expected += Frame(key, value);
  }
  ASSERT_GT(buffer.bytes_used(), size_t{16} << 20);
  EXPECT_EQ(buffer.bytes_used(), expected.size());
  for (int i = 0; i < kRecords; i += 97) {
    EXPECT_EQ(buffer.KeyAt(i).substr(4, 6),
              std::string(6 - std::to_string(i).size(), '0') +
                  std::to_string(i));
    EXPECT_EQ(buffer.ValueAt(i).substr(4),
              std::string(10 << 10, static_cast<char>('a' + i % 26)));
  }
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  EXPECT_EQ(spill.data, expected);
  EXPECT_EQ(spill.partitions[0].records, kRecords);
}

TEST(KvBufferTest, ExactFitFrameIsAcceptedOneMoreByteIsRefused) {
  const std::string key = WireBytes("k");           // 5 bytes
  const std::string value = WireBytes("12345678");  // 12 bytes
  const size_t frame = Frame(key, value).size();    // 2 + 17
  {
    // A lone frame that exactly fills the buffer.
    KvBuffer buffer(DataType::kBytesWritable, 1, frame);
    EXPECT_TRUE(buffer.Fits(key, value));
    EXPECT_TRUE(buffer.Append(0, key, value));
    EXPECT_EQ(buffer.bytes_used(), frame);
    EXPECT_FALSE(buffer.Append(0, WireBytes(""), WireBytes("")));
  }
  {
    // One byte short: never fits.
    KvBuffer buffer(DataType::kBytesWritable, 1, frame - 1);
    EXPECT_FALSE(buffer.Fits(key, value));
    EXPECT_FALSE(buffer.Append(0, key, value));
    EXPECT_EQ(buffer.bytes_used(), 0u);
  }
  {
    // After a first frame, one that fills the rest exactly is accepted and
    // one a byte longer is refused, although it fits an empty buffer.
    KvBuffer buffer(DataType::kBytesWritable, 1, 2 * frame);
    ASSERT_TRUE(buffer.Append(0, key, value));
    const std::string longer = WireBytes("123456789");
    EXPECT_TRUE(buffer.Fits(key, longer));
    EXPECT_FALSE(buffer.Append(0, key, longer));
    EXPECT_TRUE(buffer.Append(0, key, value));
    EXPECT_EQ(buffer.bytes_used(), 2 * frame);
    EXPECT_EQ(buffer.records(), 2);
  }
}

TEST(KvBufferTest, TextKeysSortLexicographically) {
  auto wire_text = [](const std::string& s) {
    BufferWriter writer;
    Text(s).Serialize(&writer);
    return writer.data();
  };
  KvBuffer buffer(DataType::kText, 1, 1 << 20);
  ASSERT_TRUE(buffer.Append(0, wire_text("pear"), wire_text("1")));
  ASSERT_TRUE(buffer.Append(0, wire_text("apple"), wire_text("2")));
  ASSERT_TRUE(buffer.Append(0, wire_text("orange"), wire_text("3")));
  buffer.Sort();
  EXPECT_EQ(buffer.KeyAt(0), wire_text("apple"));
  EXPECT_EQ(buffer.KeyAt(1), wire_text("orange"));
  EXPECT_EQ(buffer.KeyAt(2), wire_text("pear"));
}

TEST(KvBufferTest, LongRecordsRoundTripThroughMultiByteHeaders) {
  // Key and value lengths past 127 take multi-byte vint headers; the
  // one-shot Append must frame them exactly as SegmentReader decodes them.
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  const std::string short_key = WireBytes("k");
  const std::string long_key = WireBytes(std::string(300, 'a'));
  const std::string long_value = WireBytes(std::string(70000, 'v'));
  ASSERT_TRUE(buffer.Append(0, long_key, WireBytes("1")));
  ASSERT_TRUE(buffer.Append(0, short_key, long_value));
  // vint(304) and vint(70004) take 3 and 4 bytes; vint(5) takes 1.
  EXPECT_EQ(buffer.bytes_used(),
            (3 + 1 + long_key.size() + 5) + (1 + 4 + 5 + long_value.size()));
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  SegmentReader reader(spill.PartitionData(0), DataType::kBytesWritable);
  ASSERT_TRUE(reader.Valid());
  EXPECT_EQ(reader.key(), long_key);
  EXPECT_EQ(reader.value(), WireBytes("1"));
  reader.Next();
  ASSERT_TRUE(reader.Valid());
  EXPECT_EQ(reader.key(), short_key);
  EXPECT_EQ(reader.value(), long_value);
  reader.Next();
  EXPECT_FALSE(reader.Valid());
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
}

// ---- Radix sort equivalence ----------------------------------------------
// For prefix-decisive key types each bucket is sorted by a stable LSD radix
// sort on the key prefix. Its order must equal std::stable_sort under the
// type's RawComparator, arrival order among equal keys included.

enum class KeyShape { kRandom, kAllEqual, kTopByteOnly, kBottomByteOnly };

// A key value of `type` in `shape`: random full-width bits, one constant,
// or a constant whose most (least) significant byte is random — i.e. keys
// differing only in the top (bottom) byte of their prefix bits.
int64_t ShapedKey(DataType type, KeyShape shape, Rng* rng) {
  const int width = type == DataType::kLongWritable ? 64 : 32;
  const uint64_t base = 0xA55A3CC3F00F6996ULL;
  const uint64_t byte = rng->Uniform(256);
  uint64_t bits = base;
  switch (shape) {
    case KeyShape::kRandom:
      bits = rng->Next64();
      break;
    case KeyShape::kAllEqual:
      break;
    case KeyShape::kTopByteOnly:
      bits = (base & ~(0xFFULL << (width - 8))) | (byte << (width - 8));
      break;
    case KeyShape::kBottomByteOnly:
      bits = (base & ~0xFFULL) | byte;
      break;
  }
  return type == DataType::kLongWritable ? static_cast<int64_t>(bits)
                                         : static_cast<int32_t>(bits);
}

std::string WireKey(DataType type, int64_t v) {
  BufferWriter writer;
  if (type == DataType::kLongWritable) {
    LongWritable(v).Serialize(&writer);
  } else if (type == DataType::kIntWritable) {
    IntWritable(static_cast<int32_t>(v)).Serialize(&writer);
  } else {
    NullWritable().Serialize(&writer);
  }
  return writer.data();
}

TEST(KvBufferRadixSortTest, MatchesStableSortUnderTheRawComparator) {
  struct Record {
    std::string key;
    int64_t arrival;
  };
  uint64_t seed = 1;
  for (DataType type : {DataType::kIntWritable, DataType::kLongWritable,
                        DataType::kNullWritable}) {
    ASSERT_TRUE(PrefixIsDecisive(type));
    const RawComparator* comparator = ComparatorFor(type);
    for (KeyShape shape : {KeyShape::kRandom, KeyShape::kAllEqual,
                           KeyShape::kTopByteOnly, KeyShape::kBottomByteOnly}) {
      for (int64_t size : {0, 1, 2, 3, 255, 256, 257, 100000}) {
        SCOPED_TRACE(::testing::Message()
                     << "type=" << static_cast<int>(type)
                     << " shape=" << static_cast<int>(shape)
                     << " size=" << size);
        Rng rng(++seed);
        KvBuffer buffer(type, 1, static_cast<size_t>(size + 1) * 32);
        std::vector<Record> expected;
        for (int64_t i = 0; i < size; ++i) {
          const std::string key = WireKey(type, ShapedKey(type, shape, &rng));
          const std::string arrival = WireKey(DataType::kLongWritable, i);
          ASSERT_TRUE(buffer.Append(0, key, arrival));
          expected.push_back({key, i});
        }
        std::stable_sort(expected.begin(), expected.end(),
                         [comparator](const Record& a, const Record& b) {
                           return comparator->Compare(a.key, b.key) < 0;
                         });
        buffer.Sort();
        ASSERT_EQ(buffer.records(), size);
        int64_t first_mismatch = size;
        for (int64_t i = 0; i < size && first_mismatch == size; ++i) {
          BufferReader value(buffer.ValueAt(i));
          uint64_t arrival = 0;
          ASSERT_TRUE(value.ReadFixed64(&arrival).ok());
          const Record& want = expected[static_cast<size_t>(i)];
          if (buffer.KeyAt(i) != want.key ||
              static_cast<int64_t>(arrival) != want.arrival) {
            first_mismatch = i;
          }
        }
        EXPECT_EQ(first_mismatch, size);
      }
    }
  }
}

TEST(SpillSegmentTest, PartitionDataOutOfRangeDies) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  EXPECT_DEATH({ (void)spill.PartitionData(5); }, "");
}

}  // namespace
}  // namespace mrmb
