#include "io/record_gen.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "mapred/job_conf.h"
#include "mapred/null_formats.h"

namespace mrmb {
namespace {

RecordGenerator::Options BytesOptions(size_t key = 64, size_t value = 128,
                                      int unique = 4) {
  RecordGenerator::Options options;
  options.type = DataType::kBytesWritable;
  options.key_size = key;
  options.value_size = value;
  options.num_unique_keys = unique;
  options.seed = 7;
  return options;
}

TEST(RecordGenTest, KeyIdCyclesOverUniqueKeys) {
  RecordGenerator generator(BytesOptions(64, 128, 4));
  EXPECT_EQ(generator.KeyIdFor(0), 0);
  EXPECT_EQ(generator.KeyIdFor(3), 3);
  EXPECT_EQ(generator.KeyIdFor(4), 0);
  EXPECT_EQ(generator.KeyIdFor(11), 3);
}

TEST(RecordGenTest, SerializedSizesMatchOptions) {
  RecordGenerator generator(BytesOptions(64, 128));
  std::string key;
  std::string value;
  generator.SerializedKey(0, &key);
  generator.SerializedValue(0, &value);
  EXPECT_EQ(key.size(), 64u + 4u);  // BytesWritable: 4-byte length prefix
  EXPECT_EQ(value.size(), 128u + 4u);
  EXPECT_EQ(generator.serialized_key_size(), key.size());
  EXPECT_EQ(generator.serialized_value_size(), value.size());
}

TEST(RecordGenTest, SameKeyIdGivesIdenticalBytes) {
  RecordGenerator generator(BytesOptions());
  std::string a;
  std::string b;
  generator.SerializedKey(2, &a);
  generator.SerializedKey(2, &b);
  EXPECT_EQ(a, b);
}

TEST(RecordGenTest, DistinctKeyIdsGiveDistinctBytes) {
  RecordGenerator generator(BytesOptions());
  std::string a;
  std::string b;
  generator.SerializedKey(0, &a);
  generator.SerializedKey(1, &b);
  EXPECT_NE(a, b);
}

TEST(RecordGenTest, ValuesVaryByIndex) {
  RecordGenerator generator(BytesOptions());
  std::string a;
  std::string b;
  generator.SerializedValue(0, &a);
  generator.SerializedValue(1, &b);
  EXPECT_NE(a, b);
  // Same index regenerates identical bytes (determinism).
  std::string a2;
  generator.SerializedValue(0, &a2);
  EXPECT_EQ(a, a2);
}

TEST(RecordGenTest, SeedsChangePayloads) {
  RecordGenerator::Options options = BytesOptions();
  RecordGenerator g1(options);
  options.seed = 8;
  RecordGenerator g2(options);
  std::string a;
  std::string b;
  g1.SerializedValue(5, &a);
  g2.SerializedValue(5, &b);
  EXPECT_NE(a, b);
}

TEST(RecordGenTest, TextPayloadsArePrintable) {
  RecordGenerator::Options options = BytesOptions(32, 64, 3);
  options.type = DataType::kText;
  RecordGenerator generator(options);
  for (int64_t i = 0; i < 3; ++i) {
    std::string key;
    generator.SerializedKey(i, &key);
    BufferReader reader(key);
    Text text;
    ASSERT_TRUE(text.Deserialize(&reader).ok());
    EXPECT_EQ(text.value().size(), 32u);
    for (char c : text.value()) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
  std::string value;
  generator.SerializedValue(9, &value);
  BufferReader reader(value);
  Text text;
  ASSERT_TRUE(text.Deserialize(&reader).ok());
  for (char c : text.value()) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RecordGenTest, TextFramingIsVarint) {
  RecordGenerator::Options options = BytesOptions(64, 128);
  options.type = DataType::kText;
  RecordGenerator generator(options);
  // Text of 64 bytes: 1-byte vint + 64.
  EXPECT_EQ(generator.serialized_key_size(), 65u);
  EXPECT_EQ(generator.serialized_value_size(), 130u);  // 2-byte vint for 128
}

TEST(RecordGenTest, FramedRecordSize) {
  RecordGenerator generator(BytesOptions(64, 128));
  // key 68 + value 132, frame vints: 1 + 2 (132 > 127).
  EXPECT_EQ(generator.framed_record_size(), 68u + 132u + 1u + 2u);
}

TEST(RecordGenTest, RecordsForShuffleBytesRoundsUp) {
  RecordGenerator generator(BytesOptions(64, 128));
  const auto frame = static_cast<int64_t>(generator.framed_record_size());
  EXPECT_EQ(generator.RecordsForShuffleBytes(frame), 1);
  EXPECT_EQ(generator.RecordsForShuffleBytes(frame + 1), 2);
  EXPECT_EQ(generator.RecordsForShuffleBytes(10 * frame), 10);
  EXPECT_EQ(generator.RecordsForShuffleBytes(10 * frame - 1), 10);
}

TEST(RecordGenTest, KeysSortDistinctly) {
  // The big-endian id prefix makes key order match id order.
  RecordGenerator generator(BytesOptions(64, 64, 8));
  std::string prev;
  for (int64_t id = 0; id < 8; ++id) {
    std::string key;
    generator.SerializedKey(id, &key);
    if (id > 0) {
      EXPECT_LT(prev, key);
    }
    prev = key;
  }
}

TEST(RecordGenTest, TinyKeyRejected) {
  RecordGenerator::Options options = BytesOptions(4, 64);
  EXPECT_DEATH({ RecordGenerator generator(options); }, "8-byte key id");
}

TEST(RecordGenTest, UnsupportedTypeRejected) {
  RecordGenerator::Options options = BytesOptions();
  options.type = DataType::kNullWritable;
  EXPECT_DEATH({ RecordGenerator generator(options); }, "supports");
}

TEST(RecordGenTest, LongWritableRecords) {
  RecordGenerator::Options options = BytesOptions();
  options.type = DataType::kLongWritable;
  RecordGenerator generator(options);
  EXPECT_EQ(generator.serialized_key_size(), 8u);
  EXPECT_EQ(generator.serialized_value_size(), 8u);
  // Record frame: two 1-byte vints + 8 + 8.
  EXPECT_EQ(generator.framed_record_size(), 18u);
  std::string key;
  generator.SerializedKey(3, &key);
  BufferReader reader(key);
  LongWritable decoded;
  ASSERT_TRUE(decoded.Deserialize(&reader).ok());
  EXPECT_EQ(decoded.value(), 3);
  std::string value;
  generator.SerializedValue(12345, &value);
  BufferReader value_reader(value);
  ASSERT_TRUE(decoded.Deserialize(&value_reader).ok());
  EXPECT_EQ(decoded.value(), 12345);
}

TEST(RecordGenTest, IntWritableRecords) {
  RecordGenerator::Options options = BytesOptions();
  options.type = DataType::kIntWritable;
  RecordGenerator generator(options);
  EXPECT_EQ(generator.serialized_key_size(), 4u);
  EXPECT_EQ(generator.serialized_value_size(), 4u);
  std::string key_a;
  std::string key_b;
  generator.SerializedKey(1, &key_a);
  generator.SerializedKey(1, &key_b);
  EXPECT_EQ(key_a, key_b);
  generator.SerializedKey(2, &key_b);
  EXPECT_NE(key_a, key_b);
}

// ---- Pinned generator bytes --------------------------------------------
// The generated bytes are the benchmark's input: every output fingerprint
// depends on them. These CRC32Cs were captured before the payload mapping
// and the mapper's key reuse were optimised; each row chains the CRCs of
// the serialized keys (or values) of a few ids (or record indices).

struct GeneratorGolden {
  DataType type;
  uint64_t seed;
  size_t key_size;
  size_t value_size;
  uint32_t keys_crc;
  uint32_t values_crc;
};

TEST(RecordGenGoldenTest, SerializedBytesArePinned) {
  const GeneratorGolden goldens[] = {
      {DataType::kText, 1, 504, 504, 0x749d4485u, 0xe35357b4u},
      {DataType::kText, 0x9e3779b97f4a7c15ULL, 37, 1000, 0x716554c7u,
       0xd98f2097u},
      {DataType::kText, 42, 8, 0, 0xaa384719u, 0x45727635u},
      {DataType::kBytesWritable, 1, 504, 504, 0xdc8de15fu, 0x9636b41eu},
      {DataType::kBytesWritable, 0x9e3779b97f4a7c15ULL, 37, 1000,
       0x0ed3608cu, 0xc909c974u},
      {DataType::kBytesWritable, 42, 8, 0, 0x457aab14u, 0xbcc5563eu},
  };
  const int64_t key_ids[] = {0, 1, 7, 255, 123456789};
  const int64_t indices[] = {0, 1, 5, 4095, int64_t{1} << 40};
  for (const GeneratorGolden& golden : goldens) {
    RecordGenerator::Options options;
    options.type = golden.type;
    options.seed = golden.seed;
    options.key_size = golden.key_size;
    options.value_size = golden.value_size;
    RecordGenerator generator(options);
    std::string bytes;
    uint32_t keys_crc = kCrc32cInit;
    for (const int64_t id : key_ids) {
      generator.SerializedKey(id, &bytes);
      keys_crc = Crc32c(keys_crc, bytes);
    }
    uint32_t values_crc = kCrc32cInit;
    for (const int64_t index : indices) {
      generator.SerializedValue(index, &bytes);
      values_crc = Crc32c(values_crc, bytes);
    }
    const std::string row = std::string(DataTypeName(golden.type)) +
                            " seed " + std::to_string(golden.seed) +
                            " key " + std::to_string(golden.key_size);
    EXPECT_EQ(keys_crc, golden.keys_crc) << row;
    EXPECT_EQ(values_crc, golden.values_crc) << row;
  }
}

// ---- GeneratingMapper emits exactly the per-record generator stream ------

class RecordingContext final : public MapContext {
 public:
  explicit RecordingContext(const JobConf& conf) : conf_(conf) {}
  void Emit(std::string_view key, std::string_view value) override {
    records.emplace_back(key, value);
  }
  const JobConf& conf() const override { return conf_; }
  int task_id() const override { return 0; }

  std::vector<std::pair<std::string, std::string>> records;

 private:
  const JobConf& conf_;
};

TEST(GeneratingMapperTest, EmitsPerRecordKeysAndValuesForEveryType) {
  struct Case {
    DataType type;
    int num_unique_keys;
    int64_t records_per_map;
    size_t key_size = 48;
  };
  const Case cases[] = {
      {DataType::kText, 8, 37},
      {DataType::kBytesWritable, 8, 37},
      {DataType::kIntWritable, 8, 37},
      {DataType::kLongWritable, 8, 37},
      // More unique keys than records: each record has its own key.
      {DataType::kText, 64, 5},
      {DataType::kBytesWritable, 64, 5},
      {DataType::kIntWritable, 64, 5},
      {DataType::kLongWritable, 64, 5},
      {DataType::kText, 3, 0},
      {DataType::kLongWritable, 3, 0},
      {DataType::kText, 1, 9},
      {DataType::kBytesWritable, 100, 250},
      // 32 keys of 64 KB each: too many key bytes to serialize up front.
      {DataType::kText, 32, 40, 64 * 1024},
      {DataType::kBytesWritable, 32, 40, 64 * 1024},
  };
  for (const Case& c : cases) {
    JobConf conf;
    conf.record.type = c.type;
    conf.record.key_size = c.key_size;
    conf.record.value_size = 77;
    conf.record.num_unique_keys = c.num_unique_keys;
    conf.records_per_map = c.records_per_map;
    conf.seed = 11;
    const int task = 3;
    GeneratingMapper mapper(conf, task);
    RecordingContext context(conf);
    mapper.Map("", "", &context);

    RecordGenerator::Options options = conf.record;
    options.seed = conf.seed;
    RecordGenerator generator(options);
    const std::string label = std::string(DataTypeName(c.type)) + " unique " +
                              std::to_string(c.num_unique_keys) +
                              " records " + std::to_string(c.records_per_map);
    ASSERT_EQ(context.records.size(),
              static_cast<size_t>(c.records_per_map))
        << label;
    const int64_t base = task * c.records_per_map;
    std::string key;
    std::string value;
    for (int64_t i = 0; i < c.records_per_map; ++i) {
      generator.SerializedKey(generator.KeyIdFor(i), &key);
      generator.SerializedValue(base + i, &value);
      ASSERT_EQ(context.records[static_cast<size_t>(i)].first, key)
          << label << " record " << i;
      ASSERT_EQ(context.records[static_cast<size_t>(i)].second, value)
          << label << " record " << i;
    }
  }
}

}  // namespace
}  // namespace mrmb
