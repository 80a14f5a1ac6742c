// Tests for the combining pipeline (per-spill, merge-time, and in-node
// combining): byte-identity of job output across every stage combination,
// the CombineSortedRun kernel's algebra (sorted, sealed, sums exact), and
// the recovery contract — a corrupted or crashed member invalidates the
// combined shuffle stream, the engine rebuilds, and the output fingerprint
// never moves.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/comparator.h"
#include "io/kv_buffer.h"
#include "mapred/fault_injector.h"
#include "mapred/local_runner.h"
#include "mapred/map_output.h"
#include "mapred/null_formats.h"

namespace mrmb {
namespace {

namespace fs = std::filesystem;

// Aggregatable workload: LongWritable pairs with few unique keys and a
// sort buffer small enough that every map seals several spills, so all
// three combine stages have work to do.
JobConf AggJob() {
  JobConf conf;
  conf.num_maps = 6;
  conf.num_reduces = 3;
  conf.records_per_map = 600;
  conf.record.type = DataType::kLongWritable;
  conf.record.num_unique_keys = 5;
  conf.io_sort_bytes = 4 << 10;
  conf.seed = 77;
  return conf;
}

JobConf CombineAll(JobConf conf) {
  conf.combiner = CombinerKind::kSum;
  conf.min_spills_for_combine = 2;
  conf.node_combine_min_maps = 2;
  return conf;
}

JobConf WithPlan(JobConf conf, const std::string& spec) {
  auto plan = LocalFaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  conf.local_fault_plan = *plan;
  return conf;
}

// Runs the job with a SummingReducer final regardless of conf.combiner, so
// the output fingerprint is invariant to how much combining happened and
// every variant can be compared against the no-combiner baseline.
Result<LocalJobResult> RunSumJob(const JobConf& conf) {
  LocalJobRunner runner(conf);
  NullInputFormat input;
  NullOutputFormat output;
  return runner.Run(
      &input,
      [&conf](int task_id) {
        return std::make_unique<GeneratingMapper>(conf, task_id);
      },
      [](int) -> std::unique_ptr<Reducer> {
        return std::make_unique<SummingReducer>();
      },
      &output, /*partitioner_factory=*/nullptr,
      MakeBuiltinCombiner(conf.combiner));
}

// The combiner-off fingerprint every combined variant must reproduce.
uint32_t GoldenFingerprint() {
  static const uint32_t fingerprint = [] {
    auto job = RunSumJob(AggJob());
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return job.ok() ? job->output_fingerprint : 0u;
  }();
  return fingerprint;
}

// ---- Stage ablation --------------------------------------------------

TEST(CombinerStagesTest, EachStageCutsServedBytesOutputUnchanged) {
  struct Stage {
    const char* name;
    CombinerKind combiner;
    int min_spills;
    int node_min_maps;
  };
  const Stage stages[] = {
      {"off", CombinerKind::kNone, 0, 0},
      {"per_spill", CombinerKind::kSum, 0, 0},
      {"merge", CombinerKind::kSum, 2, 0},
      {"in_node", CombinerKind::kSum, 2, 2},
  };
  std::vector<int64_t> served;
  for (const Stage& stage : stages) {
    JobConf conf = AggJob();
    conf.combiner = stage.combiner;
    conf.min_spills_for_combine = stage.min_spills;
    conf.node_combine_min_maps = stage.node_min_maps;
    auto job = RunSumJob(conf);
    ASSERT_TRUE(job.ok()) << stage.name << ": " << job.status().ToString();
    EXPECT_EQ(job->output_fingerprint, GoldenFingerprint()) << stage.name;
    served.push_back(job->shuffle_serve_bytes);
    if (stage.combiner == CombinerKind::kNone) {
      EXPECT_EQ(job->combine_removed_records, 0) << stage.name;
      EXPECT_EQ(job->shuffle_savings_ratio, 0.0) << stage.name;
    } else {
      EXPECT_GT(job->combine_spill_input_records, 0) << stage.name;
    }
    if (stage.min_spills > 0) {
      EXPECT_GT(job->combine_merge_input_records, 0) << stage.name;
    }
    if (stage.node_min_maps > 1) {
      EXPECT_GT(job->node_combines, 0) << stage.name;
      EXPECT_LT(job->shuffle_streams, conf.num_maps) << stage.name;
      EXPECT_GT(job->combine_node_input_records, 0) << stage.name;
      EXPECT_GT(job->shuffle_savings_ratio, 0.0) << stage.name;
    }
  }
  // Every stage strictly shrinks what the shuffle serves.
  for (size_t i = 1; i < served.size(); ++i) {
    EXPECT_LT(served[i], served[i - 1]) << stages[i].name;
  }
}

// ---- Matrix: codec x spill x transport x threads ---------------------

TEST(CombinerMatrixTest, FingerprintInvariantAcrossDataPlaneVariants) {
  const uint32_t golden = GoldenFingerprint();
  const MapOutputCodec codecs[] = {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                                   MapOutputCodec::kDeflate};
  for (MapOutputCodec codec : codecs) {
    for (bool disk_spill : {false, true}) {
      for (bool tcp : {false, true}) {
        for (int threads : {1, 4}) {
          JobConf conf = CombineAll(AggJob());
          conf.map_output_codec = codec;
          if (disk_spill) conf.spill_budget_bytes = 0;
          conf.shuffle_transport =
              tcp ? ShuffleTransport::kTcp : ShuffleTransport::kInproc;
          conf.local_threads = threads;
          const std::string label =
              std::string(MapOutputCodecName(codec)) +
              (disk_spill ? "/disk" : "/ram") + (tcp ? "/tcp" : "/inproc") +
              "/t" + std::to_string(threads);
          auto job = RunSumJob(conf);
          ASSERT_TRUE(job.ok()) << label << ": " << job.status().ToString();
          EXPECT_EQ(job->output_fingerprint, golden) << label;
          EXPECT_GT(job->combine_removed_records, 0) << label;
          EXPECT_GT(job->node_combines, 0) << label;
          EXPECT_LT(job->shuffle_streams, conf.num_maps) << label;
          EXPECT_LT(job->shuffle_serve_bytes, job->map_output_wire_bytes)
              << label;
        }
      }
    }
  }
}

// ---- CombineSortedRun algebra ----------------------------------------

std::string SerializeLong(int64_t value) {
  BufferWriter writer;
  LongWritable(value).Serialize(&writer);
  return std::string(writer.data());
}

int64_t ParseLong(std::string_view bytes) {
  BufferReader reader(bytes);
  LongWritable value;
  EXPECT_TRUE(value.Deserialize(&reader).ok());
  return value.value();
}

struct ParsedRecord {
  std::string key;
  std::string value;
};

// Walks IFile framing: vint key length, vint value length, key, value.
std::vector<ParsedRecord> ParseFrames(std::string_view data) {
  std::vector<ParsedRecord> records;
  size_t pos = 0;
  while (pos < data.size()) {
    int64_t key_len = 0, value_len = 0;
    size_t used = 0;
    if (!DecodeVarint64(data.substr(pos), &key_len, &used).ok()) break;
    pos += used;
    if (!DecodeVarint64(data.substr(pos), &value_len, &used).ok()) break;
    pos += used;
    if (pos + static_cast<size_t>(key_len + value_len) > data.size()) break;
    ParsedRecord record;
    record.key = std::string(data.substr(pos, key_len));
    record.value = std::string(data.substr(pos + key_len, value_len));
    records.push_back(std::move(record));
    pos += static_cast<size_t>(key_len + value_len);
  }
  EXPECT_EQ(pos, data.size()) << "trailing malformed frame bytes";
  return records;
}

TEST(CombineSortedRunTest, SortedSealedAndSumsExact) {
  const int kPartitions = 4;  // partition 3 stays empty on purpose
  JobConf conf = AggJob();
  conf.num_reduces = kPartitions;
  KvBuffer buffer(DataType::kLongWritable, kPartitions, 1 << 20);
  std::mt19937_64 rng(0xC0B1);
  // partition -> key -> brute-force sum of values.
  std::map<int, std::map<int64_t, int64_t>> expected;
  for (int i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % 9);
    const int64_t value =
        static_cast<int64_t>(rng() % 20001) - 10000;  // negatives too
    const int partition = static_cast<int>(key % 3);  // 3 never used
    expected[partition][key] += value;
    ASSERT_TRUE(
        buffer.Append(partition, SerializeLong(key), SerializeLong(value)));
  }
  buffer.Sort();
  SpillSegment segment = buffer.ToSpill();
  SealSegment(&segment);

  SummingReducer combiner;
  SpillSegment combined = CombineSegment(
      segment, ComparatorFor(DataType::kLongWritable), &combiner, conf, 0);

  // The combined segment is sealed and every partition CRC verifies.
  EXPECT_TRUE(combined.sealed);
  EXPECT_TRUE(VerifySegment(combined).ok());
  ASSERT_EQ(combined.partitions.size(), static_cast<size_t>(kPartitions));

  for (int p = 0; p < kPartitions; ++p) {
    const auto records = ParseFrames(combined.PartitionData(p));
    ASSERT_EQ(records.size(), expected[p].size()) << "partition " << p;
    const RawComparator* cmp = ComparatorFor(DataType::kLongWritable);
    for (size_t i = 0; i < records.size(); ++i) {
      if (i > 0) {
        // One record per key group, strictly ascending.
        EXPECT_LT(cmp->Compare(records[i - 1].key, records[i].key), 0);
      }
      const int64_t key = ParseLong(records[i].key);
      ASSERT_TRUE(expected[p].count(key)) << "partition " << p;
      EXPECT_EQ(ParseLong(records[i].value), expected[p][key])
          << "partition " << p << " key " << key;
    }
  }

  // The kernel underneath agrees with the segment-level pass.
  for (int p = 0; p < kPartitions; ++p) {
    SummingReducer again;
    auto run = CombineSortedRun(segment.PartitionData(p),
                                ComparatorFor(DataType::kLongWritable), &again,
                                conf, 0);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->records,
              static_cast<int64_t>(expected[p].size()));
    EXPECT_EQ(run->data, std::string(combined.PartitionData(p)));
  }
}

// ---- Per-spill combine straight out of the collect buffer ------------

std::string SerializedKey(DataType type, int64_t id,
                          const std::string& stem = "") {
  BufferWriter writer;
  switch (type) {
    case DataType::kBytesWritable:
      BytesWritable(stem + std::to_string(id)).Serialize(&writer);
      break;
    case DataType::kText:
      Text(stem + std::to_string(id)).Serialize(&writer);
      break;
    case DataType::kIntWritable:
      IntWritable(static_cast<int32_t>(id * 7919 - 40000)).Serialize(&writer);
      break;
    case DataType::kLongWritable:
      LongWritable(id * 1000003 - (int64_t{1} << 40)).Serialize(&writer);
      break;
    case DataType::kNullWritable:
      break;
  }
  return std::string(writer.data());
}

// Emits nothing for a group with an even number of values and two records
// (its first and last value) for an odd one.
class ZeroOrTwoCombiner final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    std::string first, last;
    int64_t count = 0;
    while (values->Next()) {
      if (count++ == 0) first = values->value();
      last = values->value();
    }
    if (count % 2 == 0) return;
    context->Emit(key, first);
    context->Emit(key, last);
  }
};

void ExpectSameSpill(const SpillSegment& got, const SpillSegment& want,
                     const std::string& label) {
  EXPECT_TRUE(got.sealed) << label;
  EXPECT_EQ(got.data, want.data) << label;
  ASSERT_EQ(got.partitions.size(), want.partitions.size()) << label;
  for (size_t p = 0; p < got.partitions.size(); ++p) {
    const SpillSegment::PartitionRange& a = got.partitions[p];
    const SpillSegment::PartitionRange& b = want.partitions[p];
    EXPECT_EQ(a.offset, b.offset) << label << " partition " << p;
    EXPECT_EQ(a.length, b.length) << label << " partition " << p;
    EXPECT_EQ(a.records, b.records) << label << " partition " << p;
    EXPECT_EQ(a.raw_length, b.raw_length) << label << " partition " << p;
    EXPECT_EQ(a.crc, b.crc) << label << " partition " << p;
  }
}

// Partition 0 stays empty, partition 1 holds one key only, partition 2
// mixes one-record groups with repeats, and partition 3 draws from keys
// that share their first 8 payload bytes (and, for Text, need multi-byte
// length headers) but differ later.
void FillShapedBuffer(DataType type, KvBuffer* buffer,
                      std::map<int, std::set<std::string>>* distinct) {
  std::mt19937_64 rng(0xB0FFu + static_cast<uint64_t>(type));
  const std::string long_stem(150, 'p');
  const auto append = [&](int partition, const std::string& key) {
    const std::string value =
        SerializeLong(static_cast<int64_t>(rng() % 2001) - 1000);
    ASSERT_TRUE(buffer->Append(partition, key, value));
    (*distinct)[partition].insert(key);
  };
  for (int i = 0; i < 300; ++i) append(1, SerializedKey(type, 42));
  for (int i = 0; i < 400; ++i) {
    // Ids >= 1000 occur once each; the rest repeat.
    const int64_t id = i % 3 == 0 ? 1000 + i : static_cast<int64_t>(rng() % 9);
    append(2, SerializedKey(type, id));
  }
  for (int i = 0; i < 400; ++i) {
    const int64_t id = static_cast<int64_t>(rng() % 12);
    append(3, SerializedKey(type, id, id % 2 == 0 ? "prefix12" : long_stem));
  }
}

TEST(CombinerBufferTest, MatchesCombineSegmentForEveryKeyType) {
  const DataType types[] = {DataType::kBytesWritable, DataType::kText,
                            DataType::kIntWritable, DataType::kLongWritable,
                            DataType::kNullWritable};
  const JobConf conf;
  for (DataType type : types) {
    KvBuffer buffer(type, 4, 1 << 20);
    std::map<int, std::set<std::string>> distinct;
    FillShapedBuffer(type, &buffer, &distinct);
    buffer.Sort();
    const SpillSegment raw = buffer.ToSpill();
    const RawComparator* comparator = ComparatorFor(type);
    const std::string name = DataTypeName(type);

    SummingReducer sum;
    Result<SpillSegment> summed = CombineBuffer(buffer, &sum, conf, 3);
    ASSERT_TRUE(summed.ok()) << name << ": " << summed.status().ToString();
    ExpectSameSpill(*summed, CombineSegment(raw, comparator, &sum, conf, 3),
                    name + "/sum");
    // One record per distinct key: keys sharing a prefix never merge.
    for (int p = 0; p < 4; ++p) {
      EXPECT_EQ(summed->partitions[static_cast<size_t>(p)].records,
                static_cast<int64_t>(distinct[p].size()))
          << name << " partition " << p;
    }

    ZeroOrTwoCombiner zero_or_two;
    Result<SpillSegment> reshaped =
        CombineBuffer(buffer, &zero_or_two, conf, 3);
    ASSERT_TRUE(reshaped.ok()) << name;
    ExpectSameSpill(*reshaped,
                    CombineSegment(raw, comparator, &zero_or_two, conf, 3),
                    name + "/zero_or_two");
  }
}

TEST(CombinerBufferTest, EmptyBufferCombinesToEmptySealedSegment) {
  KvBuffer buffer(DataType::kLongWritable, 3, 1 << 10);
  buffer.Sort();
  SummingReducer sum;
  Result<SpillSegment> combined = CombineBuffer(buffer, &sum, JobConf(), 0);
  ASSERT_TRUE(combined.ok());
  ExpectSameSpill(*combined,
                  CombineSegment(buffer.ToSpill(),
                                 ComparatorFor(DataType::kLongWritable), &sum,
                                 JobConf(), 0),
                  "empty");
  EXPECT_EQ(combined->total_bytes(), 0);
}

// A key of the wrong wire format is an error, even when its prefix (and,
// for Text, its payload) equals a valid neighbour's, so it would otherwise
// be summed into that neighbour's group.
TEST(CombinerBufferTest, MalformedKeyIsRejectedNotMerged) {
  struct Case {
    const char* name;
    DataType type;
    std::string valid;
    std::string malformed;
  };
  const std::string long_key = SerializedKey(DataType::kLongWritable, 5);
  const std::string int_key = SerializedKey(DataType::kIntWritable, 5);
  const std::string text_key = SerializedKey(DataType::kText, 5, "abcdefghij");
  std::string text_bad = text_key;
  text_bad[0] = static_cast<char>(text_bad[0] - 1);  // vint one short
  const Case cases[] = {
      {"long9", DataType::kLongWritable, long_key, long_key + "x"},
      {"int5", DataType::kIntWritable, int_key, int_key + "x"},
      {"text_vint", DataType::kText, text_key, text_bad},
  };
  for (const Case& c : cases) {
    for (bool malformed_first : {false, true}) {
      KvBuffer buffer(c.type, 1, 1 << 10);
      const std::string one = SerializeLong(1);
      ASSERT_TRUE(buffer.Append(0, malformed_first ? c.malformed : c.valid,
                                one));
      ASSERT_TRUE(buffer.Append(0, malformed_first ? c.valid : c.malformed,
                                one));
      ASSERT_TRUE(buffer.Append(0, c.valid, one));
      buffer.Sort();
      SummingReducer sum;
      Result<SpillSegment> combined =
          CombineBuffer(buffer, &sum, JobConf(), 7);
      ASSERT_FALSE(combined.ok()) << c.name;
      EXPECT_EQ(combined.status().code(), StatusCode::kInvalidArgument)
          << c.name << ": " << combined.status().ToString();
    }
  }
}

// Emits a fixed list of keys, each with a LongWritable 1.
class FixedKeysMapper final : public Mapper {
 public:
  explicit FixedKeysMapper(std::vector<std::string> keys)
      : keys_(std::move(keys)) {}
  void Map(std::string_view, std::string_view, MapContext* context) override {
    const std::string one = SerializeLong(1);
    for (const std::string& key : keys_) context->Emit(key, one);
  }

 private:
  std::vector<std::string> keys_;
};

// A mapper emitting a key of the wrong wire format fails the job with
// InvalidArgument, with or without a combiner, instead of aborting the
// process (keys too short for a key prefix) or passing the map's collect
// and sort to surface later as shuffle DataLoss.
TEST(CombinerKeyValidationTest, MalformedMapperKeyFailsJob) {
  std::string text_bad = SerializedKey(DataType::kText, 5, "abcdefghij");
  text_bad[0] = static_cast<char>(text_bad[0] + 1);  // vint one long
  const struct {
    const char* name;
    DataType type;
    std::string malformed;
  } cases[] = {
      {"long9", DataType::kLongWritable, std::string(9, '\x01')},
      {"long7", DataType::kLongWritable, std::string(7, '\x01')},
      {"int5", DataType::kIntWritable, std::string(5, '\x01')},
      {"text_vint", DataType::kText, text_bad},
      {"text_no_vint", DataType::kText, std::string()},
      {"bytes3", DataType::kBytesWritable, std::string(3, '\0')},
  };
  for (const auto& c : cases) {
    for (CombinerKind combiner : {CombinerKind::kSum, CombinerKind::kNone}) {
      const std::string label =
          std::string(c.name) +
          (combiner == CombinerKind::kSum ? "/sum" : "/none");
      JobConf conf;
      conf.num_maps = 2;
      conf.num_reduces = 2;
      conf.record.type = c.type;
      conf.io_sort_bytes = 1 << 10;
      conf.max_task_attempts = 2;
      std::vector<std::string> keys;
      for (int64_t i = 0; i < 200; ++i) {
        keys.push_back(SerializedKey(c.type, i % 7));
      }
      keys.insert(keys.begin() + 120, c.malformed);
      LocalJobRunner runner(conf);
      NullInputFormat input;
      NullOutputFormat output;
      auto job = runner.Run(
          &input,
          [&keys](int) { return std::make_unique<FixedKeysMapper>(keys); },
          [](int) -> std::unique_ptr<Reducer> {
            return std::make_unique<SummingReducer>();
          },
          &output, /*partitioner_factory=*/nullptr,
          MakeBuiltinCombiner(combiner));
      ASSERT_FALSE(job.ok()) << label;
      EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument)
          << label << ": " << job.status().ToString();
    }
  }
}

// ---- Per-spill combine counters, pinned ------------------------------

// A fixed multi-spill combining job: every map seals several spills, so the
// per-spill pass runs many times per attempt and the merge-time pass folds
// what straddled spill boundaries. Every combine counter and the output
// fingerprint are pinned bit for bit; a change to how the per-spill pass
// reads the collect buffer must not move any of them.
TEST(CombinerBufferTest, MultiSpillJobCountersGolden) {
  struct Golden {
    const char* name;
    int unique_keys;
    int min_spills;
    int threads;
    int64_t spill_input_bytes;
    int64_t spill_output_records;
    int64_t spill_output_bytes;
    int64_t removed;
    uint32_t fingerprint;
  };
  const Golden goldens[] = {
      {"k5/per_spill/t1", 5, 0, 1, 64800, 360, 6480, 3240, 0x0a014edeu},
      {"k5/per_spill+merge/t4", 5, 2, 4, 64800, 360, 6480, 3510, 0x0a014edeu},
      {"k37/per_spill+merge/t2", 37, 2, 2, 64800, 2322, 41796, 2934,
       0x01c34953u},
  };
  for (const Golden& golden : goldens) {
    JobConf conf = AggJob();
    conf.record.num_unique_keys = golden.unique_keys;
    conf.combiner = CombinerKind::kSum;
    conf.min_spills_for_combine = golden.min_spills;
    conf.local_threads = golden.threads;
    auto job = RunSumJob(conf);
    ASSERT_TRUE(job.ok()) << golden.name << ": " << job.status().ToString();
    // Every emitted record passes through exactly one per-spill combine.
    EXPECT_EQ(job->combine_spill_input_records, job->map_output_records)
        << golden.name;
    EXPECT_EQ(job->combine_spill_input_bytes, golden.spill_input_bytes)
        << golden.name;
    EXPECT_EQ(job->combine_spill_output_records, golden.spill_output_records)
        << golden.name;
    EXPECT_EQ(job->combine_spill_output_bytes, golden.spill_output_bytes)
        << golden.name;
    EXPECT_EQ(job->combine_removed_records, golden.removed) << golden.name;
    EXPECT_EQ(job->output_fingerprint, golden.fingerprint) << golden.name;
  }
}

// ---- Recovery: the combined stream rebuilds, output never moves ------

TEST(CombinerFaultTest, CorruptMemberInvalidatesStreamAndRebuilds) {
  JobConf conf = WithPlan(CombineAll(AggJob()), "corrupt_map:1@a=0,p=0");
  auto job = RunSumJob(conf);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  // The damage was caught (node-combine build or fetch-time CRC), blamed on
  // map 1, and the map re-ran; the rebuilt stream serves clean bytes.
  EXPECT_GT(job->corruptions_detected, 0);
  EXPECT_GT(job->map_attempts, conf.num_maps);
  EXPECT_GT(job->node_combines, 0);
  EXPECT_EQ(job->output_fingerprint, GoldenFingerprint());
}

TEST(CombinerFaultTest, TcpConnectionDropRefetchesCombinedStream) {
  JobConf conf = WithPlan(CombineAll(AggJob()), "drop_conn:0@a=0");
  conf.shuffle_transport = ShuffleTransport::kTcp;
  auto job = RunSumJob(conf);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_GT(job->transport_retransmits, 0);
  EXPECT_GT(job->node_combines, 0);
  EXPECT_EQ(job->output_fingerprint, GoldenFingerprint());
}

class CombinerResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mrmb-combiner-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(CombinerResumeTest, CrashedJobResumesWithCombiningIntact) {
  JobConf crash = WithPlan(CombineAll(AggJob()), "crash_at:map_commit@1");
  crash.spill_dir = dir_;
  crash.job_journal = true;
  auto crashed = RunSumJob(crash);
  ASSERT_FALSE(crashed.ok()) << "crash point never fired";
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
      << crashed.status().ToString();

  JobConf resume = CombineAll(AggJob());
  resume.spill_dir = dir_;
  resume.resume = true;
  auto resumed = RunSumJob(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_GT(resumed->maps_adopted, 0);
  // Adopted maps carry their journaled combiner accounting, so the resumed
  // job still reports the full per-spill pass.
  EXPECT_GT(resumed->combine_spill_input_records, 0);
  EXPECT_GT(resumed->node_combines, 0);
  EXPECT_EQ(resumed->output_fingerprint, GoldenFingerprint());
}

}  // namespace
}  // namespace mrmb
