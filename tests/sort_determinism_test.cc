// Golden-checksum determinism tests for the sort/merge engine.
//
// The map-side sort, spill and merge pipeline must produce byte-identical
// output for any thread count, and any engine rewrite must keep the exact
// byte stream: these tests pin CRC32C fingerprints of sorted spills and of
// a full job's committed output. The golden values were captured from the
// original std::stable_sort/binary-heap engine, so the bucketed
// prefix-comparison engine is provably byte-compatible with it.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/kv_buffer.h"
#include "mapred/local_runner.h"
#include "mapred/null_formats.h"

namespace mrmb {
namespace {

// ---- Deterministic record material (frozen: golden values depend on it) --

// Arbitrary bytes including '\0' and non-ASCII, length in [min_len, max_len].
std::string RandomPayload(Rng* rng, size_t min_len, size_t max_len) {
  const size_t len =
      min_len + static_cast<size_t>(rng->Uniform(max_len - min_len + 1));
  std::string payload(len, '\0');
  for (char& c : payload) {
    c = static_cast<char>(rng->Uniform(256));
  }
  return payload;
}

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

std::string WireText(const std::string& payload) {
  BufferWriter writer;
  Text(payload).Serialize(&writer);
  return writer.data();
}

std::string WireInt(int32_t value) {
  BufferWriter writer;
  IntWritable(value).Serialize(&writer);
  return writer.data();
}

std::string WireLong(int64_t value) {
  BufferWriter writer;
  LongWritable(value).Serialize(&writer);
  return writer.data();
}

// Fills `buffer` with `records` pseudo-random records of `type` spread over
// the buffer's partitions. Never spills (caller sizes the buffer).
void FillBuffer(KvBuffer* buffer, DataType type, int64_t records,
                uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < records; ++i) {
    const int partition =
        static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(buffer->num_partitions())));
    std::string key;
    switch (type) {
      case DataType::kBytesWritable:
        key = WireBytes(RandomPayload(&rng, 0, 24));
        break;
      case DataType::kText:
        key = WireText(RandomPayload(&rng, 0, 24));
        break;
      case DataType::kIntWritable:
        key = WireInt(static_cast<int32_t>(rng.Next64()));
        break;
      default:
        key = WireBytes(RandomPayload(&rng, 1, 8));
        break;
    }
    const std::string value = WireBytes(RandomPayload(&rng, 0, 16));
    ASSERT_TRUE(buffer->Append(partition, key, value));
  }
}

// Fills `buffer` with fixed-width keys (IntWritable or LongWritable) that
// carry every edge an order-preserving key encoding can get wrong: negative
// keys, the type's minimum and maximum, small keys with many duplicates,
// full-width random keys, and one partition (0) where every key is equal.
void FillFixedWidthEdges(KvBuffer* buffer, DataType type, int64_t records,
                         uint64_t seed) {
  const bool is_long = type == DataType::kLongWritable;
  const int64_t min = is_long ? std::numeric_limits<int64_t>::min()
                              : std::numeric_limits<int32_t>::min();
  const int64_t max = is_long ? std::numeric_limits<int64_t>::max()
                              : std::numeric_limits<int32_t>::max();
  Rng rng(seed);
  for (int64_t i = 0; i < records; ++i) {
    const int partition =
        static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(buffer->num_partitions())));
    int64_t v = -42;  // partition 0: all keys equal
    if (partition != 0) {
      switch (rng.Uniform(4)) {
        case 0:
          v = rng.Uniform(2) == 0 ? min : max;
          break;
        case 1:
          v = static_cast<int64_t>(rng.Uniform(16)) - 8;
          break;
        default:
          v = is_long ? static_cast<int64_t>(rng.Next64())
                      : static_cast<int32_t>(rng.Next64());
          break;
      }
    }
    const std::string key =
        is_long ? WireLong(v) : WireInt(static_cast<int32_t>(v));
    const std::string value = WireBytes(RandomPayload(&rng, 0, 16));
    ASSERT_TRUE(buffer->Append(partition, key, value));
  }
}

// CRC32C fingerprint of a sorted spill: the full data bytes plus every
// partition's (records, length, crc) triple — but never offsets, which are
// not part of the byte-stream contract for empty partitions.
uint32_t SpillFingerprint(const SpillSegment& spill) {
  uint32_t crc = Crc32c(spill.data);
  for (const SpillSegment::PartitionRange& range : spill.partitions) {
    BufferWriter writer;
    writer.AppendFixed64(static_cast<uint64_t>(range.records));
    writer.AppendFixed64(static_cast<uint64_t>(range.length));
    writer.AppendFixed32(range.crc);
    crc = Crc32c(crc, writer.data());
  }
  return crc;
}

// Sorts `buffer` with `threads` sorter threads. The spill bytes must not
// depend on `threads` in any way.
void SortWithThreads(KvBuffer* buffer, int threads) {
  if (threads <= 1) {
    buffer->Sort();
    return;
  }
  ThreadPool pool(threads);
  buffer->Sort(&pool);
}

uint32_t SortedSpillFingerprint(DataType type, int num_partitions,
                                int64_t records, uint64_t seed, int threads) {
  KvBuffer buffer(type, num_partitions, 64u << 20);
  FillBuffer(&buffer, type, records, seed);
  SortWithThreads(&buffer, threads);
  return SpillFingerprint(buffer.ToSpill());
}

uint32_t EdgeSpillFingerprint(DataType type, int threads) {
  KvBuffer buffer(type, 4, 64u << 20);
  FillFixedWidthEdges(&buffer, type, 30000, 0x5EED);
  SortWithThreads(&buffer, threads);
  return SpillFingerprint(buffer.ToSpill());
}

// Golden fingerprints captured from the pre-rewrite engine
// (std::stable_sort over a (partition, key) comparator, binary-heap merge).
constexpr uint32_t kGoldenBytesSpill = 0x67a45a38u;
constexpr uint32_t kGoldenTextSpill = 0x9dfc8e19u;
constexpr uint32_t kGoldenIntSpill = 0x59049c2fu;
// Captured from the std::stable_sort bucket sort (prefix compare, no
// comparator fallback for fixed-width keys) before fixed-width buckets
// moved to the radix sort.
constexpr uint32_t kGoldenLongEdgeSpill = 0x96ebab6fu;
constexpr uint32_t kGoldenIntEdgeSpill = 0xed8028beu;
constexpr uint32_t kGoldenJobOutput = 0x6351b944u;

TEST(SortDeterminismTest, BytesSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(SortedSpillFingerprint(DataType::kBytesWritable, 8, 20000,
                                     0xB5, threads),
              kGoldenBytesSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, TextSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(
        SortedSpillFingerprint(DataType::kText, 4, 12000, 0x7E, threads),
        kGoldenTextSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, IntSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(
        SortedSpillFingerprint(DataType::kIntWritable, 4, 10000, 0x11,
                               threads),
        kGoldenIntSpill)
        << "threads=" << threads;
  }
}

// IntSpillMatchesGolden already covers random (half negative) IntWritable
// keys; the edge sets add the type extremes and an all-equal partition.
TEST(SortDeterminismTest, LongEdgeSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(EdgeSpillFingerprint(DataType::kLongWritable, threads),
              kGoldenLongEdgeSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, IntEdgeSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(EdgeSpillFingerprint(DataType::kIntWritable, threads),
              kGoldenIntEdgeSpill)
        << "threads=" << threads;
  }
}

// ---- Full-job golden: collect -> sort -> spill -> merge -> shuffle ->
// merge -> reduce -> output, fingerprinted per reducer ---------------------

// Emits a deterministic pseudo-random batch of Text-keyed records per map
// task (NullInputFormat feeds each map exactly one dummy record).
class GoldenMapper final : public Mapper {
 public:
  explicit GoldenMapper(int task_id) : task_id_(task_id) {}

  void Map(std::string_view, std::string_view, MapContext* context) override {
    Rng rng(0xC0FFEE + static_cast<uint64_t>(task_id_) * 131);
    for (int i = 0; i < 5000; ++i) {
      // A small key pool so reducers see real groups; keys share long
      // prefixes to exercise the comparator fallback path.
      const uint64_t id = rng.Uniform(64);
      const std::string key =
          WireText("shared-prefix-key-" + std::to_string(id));
      const std::string value = WireBytes(RandomPayload(&rng, 0, 12));
      context->Emit(key, value);
    }
  }

 private:
  int task_id_;
};

// Emits (key, count || byte_sum) so the output depends on every value byte.
class FingerprintReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    int64_t count = 0;
    uint64_t byte_sum = 0;
    while (values->Next()) {
      ++count;
      for (const char c : values->value()) {
        byte_sum += static_cast<uint8_t>(c);
      }
    }
    BufferWriter writer;
    writer.AppendFixed64(static_cast<uint64_t>(count));
    writer.AppendFixed64(byte_sum);
    context->Emit(key, writer.data());
  }
};

// Frames every committed record into a per-reducer byte stream.
class CapturingOutputFormat final : public OutputFormat {
 public:
  std::unique_ptr<RecordWriter> CreateWriter(const JobConf&,
                                             int task_id) override {
    class Writer final : public RecordWriter {
     public:
      explicit Writer(std::string* out) : writer_(out) {}
      void Write(std::string_view key, std::string_view value) override {
        writer_.AppendVarint64(static_cast<int64_t>(key.size()));
        writer_.AppendVarint64(static_cast<int64_t>(value.size()));
        writer_.AppendRaw(key);
        writer_.AppendRaw(value);
      }
      Status Close() override { return Status::OK(); }

     private:
      BufferWriter writer_;
    };
    return std::make_unique<Writer>(&streams_[task_id]);
  }

  uint32_t Fingerprint() const {
    uint32_t crc = kCrc32cInit;
    for (const auto& [reducer, stream] : streams_) {
      BufferWriter writer;
      writer.AppendFixed32(static_cast<uint32_t>(reducer));
      crc = Crc32c(crc, writer.data());
      crc = Crc32c(crc, stream);
    }
    return crc;
  }

 private:
  std::map<int, std::string> streams_;
};

uint32_t JobOutputFingerprint(int local_threads, int sort_threads,
                              double reduce_slowstart = 0.05,
                              int merge_factor = 10,
                              MapOutputCodec codec = MapOutputCodec::kNone) {
  JobConf conf;
  conf.num_maps = 4;
  conf.num_reduces = 3;
  conf.record.type = DataType::kText;
  conf.io_sort_bytes = 64 * 1024;  // forces several spills + merge per map
  conf.spill_percent = 1.0;
  conf.local_threads = local_threads;
  conf.sort_threads = sort_threads;
  conf.reduce_slowstart = reduce_slowstart;
  conf.merge_factor = merge_factor;
  conf.map_output_codec = codec;
  LocalJobRunner runner(conf);
  NullInputFormat input;
  CapturingOutputFormat output;
  auto result = runner.Run(
      &input, [](int task) { return std::make_unique<GoldenMapper>(task); },
      [](int) { return std::make_unique<FingerprintReducer>(); }, &output);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return output.Fingerprint();
}

TEST(SortDeterminismTest, JobOutputMatchesGoldenAcrossThreadCounts) {
  for (int local_threads : {1, 2, 8}) {
    EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1),
              kGoldenJobOutput)
        << "local_threads=" << local_threads;
  }
}

TEST(SortDeterminismTest, JobOutputMatchesGoldenAcrossSortThreadCounts) {
  for (int sort_threads : {2, 8}) {
    EXPECT_EQ(JobOutputFingerprint(/*local_threads=*/2, sort_threads),
              kGoldenJobOutput)
        << "sort_threads=" << sort_threads;
  }
}

// The pipelined shuffle must be invisible in the bytes: however much the
// map phase and the reduce-side fetch/merge overlap (slow-start 0 =
// fetchers race the first commit; 1.0 = full map barrier, the pre-pipeline
// behaviour), the committed output equals the golden fingerprint.
TEST(SortDeterminismTest, JobOutputMatchesGoldenAcrossSlowstartAndThreads) {
  for (double slowstart : {0.0, 0.05, 1.0}) {
    for (int local_threads : {1, 2, 8}) {
      EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1,
                                     slowstart),
                kGoldenJobOutput)
          << "reduce_slowstart=" << slowstart
          << " local_threads=" << local_threads;
    }
  }
}

// The shuffle data plane's codecs must be invisible in the bytes: whatever
// compresses the wire, the fetch path decompresses back to the exact
// spill stream, so the committed output still equals the codec=none golden
// fingerprint.
TEST(SortDeterminismTest, JobOutputMatchesGoldenUnderEveryCodec) {
  for (MapOutputCodec codec :
       {MapOutputCodec::kLz4, MapOutputCodec::kDeflate}) {
    for (int local_threads : {1, 8}) {
      EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1,
                                     /*reduce_slowstart=*/0.05,
                                     /*merge_factor=*/10, codec),
                kGoldenJobOutput)
          << "codec=" << MapOutputCodecName(codec)
          << " local_threads=" << local_threads;
    }
  }
}

// The deprecated compress_map_output bool must behave exactly like
// map_output_codec=deflate.
TEST(SortDeterminismTest, DeprecatedCompressAliasMatchesGolden) {
  JobConf conf;
  conf.compress_map_output = true;
  EXPECT_EQ(conf.effective_map_output_codec(), MapOutputCodec::kDeflate);
  conf.map_output_codec = MapOutputCodec::kLz4;
  EXPECT_EQ(conf.effective_map_output_codec(), MapOutputCodec::kLz4);
}

// A tiny merge factor forces real intermediate folds (4 maps, factor 2 =>
// two background merge nodes feeding the final merge); the fold plan's
// contiguous-span tie-breaking must keep equal keys in global map order,
// so the bytes still match the flat-merge golden.
TEST(SortDeterminismTest, JobOutputMatchesGoldenWithBoundedMergeFanIn) {
  for (int local_threads : {1, 8}) {
    EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1,
                                   /*reduce_slowstart=*/0.0,
                                   /*merge_factor=*/2),
              kGoldenJobOutput)
        << "local_threads=" << local_threads;
  }
}

}  // namespace
}  // namespace mrmb
