// google-benchmark micro-kernels for the engine's hot code paths:
// serialization, raw comparison, sort-buffer collect+sort, k-way merge,
// partitioners, and the max-min fair-share solver. These are the kernels
// whose costs the CostModel abstracts; run with --benchmark_filter=... to
// focus.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "io/block_codec.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/key_prefix.h"
#include "io/kv_buffer.h"
#include "io/merge.h"
#include "io/record_gen.h"
#include "mapred/job_conf.h"
#include "mapred/map_output.h"
#include "mapred/null_formats.h"
#include "mapred/partitioner.h"
#include "sim/fairshare.h"

namespace mrmb {
namespace {

void BM_SerializeBytesWritable(benchmark::State& state) {
  const auto payload_size = static_cast<size_t>(state.range(0));
  const std::string payload(payload_size, 'x');
  BytesWritable value(payload);
  std::string out;
  for (auto _ : state) {
    out.clear();
    BufferWriter writer(&out);
    value.Serialize(&writer);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload_size));
}
BENCHMARK(BM_SerializeBytesWritable)->Arg(100)->Arg(1024)->Arg(10240);

void BM_DeserializeText(benchmark::State& state) {
  const std::string payload(static_cast<size_t>(state.range(0)), 'y');
  std::string wire;
  BufferWriter writer(&wire);
  Text(payload).Serialize(&writer);
  for (auto _ : state) {
    BufferReader reader(wire);
    Text out;
    benchmark::DoNotOptimize(out.Deserialize(&reader).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DeserializeText)->Arg(100)->Arg(1024)->Arg(10240);

void BM_VarintEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  std::vector<int64_t> values(1024);
  for (auto& v : values) v = static_cast<int64_t>(rng.Next64() >> 16);
  std::string wire;
  for (auto _ : state) {
    wire.clear();
    BufferWriter writer(&wire);
    for (int64_t v : values) writer.AppendVarint64(v);
    BufferReader reader(wire);
    int64_t out = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      benchmark::DoNotOptimize(reader.ReadVarint64(&out).ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_RawCompareBytes(benchmark::State& state) {
  const auto key_size = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::string> wires;
  for (int i = 0; i < 64; ++i) {
    std::string payload(key_size, '\0');
    rng.Fill(payload.data(), payload.size());
    BufferWriter writer;
    BytesWritable(payload).Serialize(&writer);
    wires.push_back(writer.data());
  }
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = wires[i % wires.size()];
    const auto& b = wires[(i + 1) % wires.size()];
    benchmark::DoNotOptimize(cmp->Compare(a, b));
    ++i;
  }
}
BENCHMARK(BM_RawCompareBytes)->Arg(16)->Arg(512)->Arg(5120);

void BM_KvBufferCollectAndSort(benchmark::State& state) {
  const auto records = static_cast<int64_t>(state.range(0));
  RecordGenerator::Options gen_options;
  gen_options.key_size = 64;
  gen_options.value_size = 128;
  gen_options.num_unique_keys = 8;
  RecordGenerator generator(gen_options);
  std::vector<std::string> keys;
  std::string value;
  generator.SerializedValue(0, &value);
  for (int64_t id = 0; id < 8; ++id) {
    std::string key;
    generator.SerializedKey(id, &key);
    keys.push_back(std::move(key));
  }
  for (auto _ : state) {
    KvBuffer buffer(DataType::kBytesWritable, 8,
                    static_cast<size_t>(records + 1) * 256);
    for (int64_t i = 0; i < records; ++i) {
      buffer.Append(static_cast<int>(i % 8),
                    keys[static_cast<size_t>(i % 8)], value);
    }
    buffer.Sort();
    benchmark::DoNotOptimize(buffer.records());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_KvBufferCollectAndSort)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KwayMerge(benchmark::State& state) {
  const int num_segments = static_cast<int>(state.range(0));
  constexpr int kRecordsPerSegment = 2000;
  RecordGenerator::Options gen_options;
  gen_options.key_size = 32;
  gen_options.value_size = 64;
  gen_options.num_unique_keys = 1000;
  RecordGenerator generator(gen_options);

  std::vector<std::string> segments;
  for (int s = 0; s < num_segments; ++s) {
    KvBuffer buffer(DataType::kBytesWritable, 1, 64u << 20);
    std::string key;
    std::string value;
    for (int i = 0; i < kRecordsPerSegment; ++i) {
      generator.SerializedKey(generator.KeyIdFor(i * (s + 3)), &key);
      generator.SerializedValue(i, &value);
      buffer.Append(0, key, value);
    }
    buffer.Sort();
    segments.push_back(buffer.ToSpill().data);
  }
  for (auto _ : state) {
    std::vector<std::unique_ptr<RecordStream>> inputs;
    for (const std::string& segment : segments) {
      inputs.push_back(std::make_unique<SegmentReader>(segment));
    }
    MergeIterator merged(std::move(inputs),
                         ComparatorFor(DataType::kBytesWritable));
    int64_t count = 0;
    while (merged.Valid()) {
      ++count;
      merged.Next();
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          num_segments * kRecordsPerSegment);
}
BENCHMARK(BM_KwayMerge)->Arg(2)->Arg(8)->Arg(32);

void BM_NormalizedKeyPrefix(benchmark::State& state) {
  const auto type = static_cast<DataType>(state.range(0));
  Rng rng(7);
  std::vector<std::string> wires;
  for (int i = 0; i < 64; ++i) {
    BufferWriter writer;
    if (type == DataType::kText) {
      std::string payload(12, '\0');
      rng.Fill(payload.data(), payload.size());
      Text(payload).Serialize(&writer);
    } else {
      std::string payload(12, '\0');
      rng.Fill(payload.data(), payload.size());
      BytesWritable(payload).Serialize(&writer);
    }
    wires.push_back(writer.data());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NormalizedKeyPrefix(type, wires[i % wires.size()]));
    ++i;
  }
}
BENCHMARK(BM_NormalizedKeyPrefix)
    ->Arg(static_cast<int>(DataType::kBytesWritable))
    ->Arg(static_cast<int>(DataType::kText));

// Collect+sort with high-cardinality random keys: the realistic shape for
// the prefix comparison (BM_KvBufferCollectAndSort reuses 8 keys, so it
// mostly measures ties).
void BM_KvBufferCollectAndSortUniqueKeys(benchmark::State& state) {
  const auto records = static_cast<int64_t>(state.range(0));
  Rng rng(11);
  std::vector<std::string> keys;
  std::string value;
  {
    BufferWriter writer;
    BytesWritable(std::string(16, 'v')).Serialize(&writer);
    value = writer.data();
  }
  for (int64_t i = 0; i < records; ++i) {
    std::string payload(16, '\0');
    rng.Fill(payload.data(), payload.size());
    BufferWriter writer;
    BytesWritable(payload).Serialize(&writer);
    keys.push_back(writer.data());
  }
  KvBuffer buffer(DataType::kBytesWritable, 8,
                  static_cast<size_t>(records + 1) * 64);
  for (auto _ : state) {
    buffer.Clear();
    for (int64_t i = 0; i < records; ++i) {
      buffer.Append(static_cast<int>(i % 8), keys[static_cast<size_t>(i)],
                    value);
    }
    buffer.Sort();
    benchmark::DoNotOptimize(buffer.records());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_KvBufferCollectAndSortUniqueKeys)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// Per-partition parallel sort: arg is the sorter thread count. Reports
// real time — the sorting happens on pool threads, so main-thread CPU
// time is meaningless; expect wall-clock scaling only on multi-core hosts.
void BM_KvBufferParallelSort(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int64_t kRecords = 500000;
  constexpr int kPartitions = 16;
  Rng rng(13);
  std::vector<std::string> keys;
  std::string value;
  {
    BufferWriter writer;
    BytesWritable(std::string(16, 'v')).Serialize(&writer);
    value = writer.data();
  }
  for (int64_t i = 0; i < kRecords; ++i) {
    std::string payload(16, '\0');
    rng.Fill(payload.data(), payload.size());
    BufferWriter writer;
    BytesWritable(payload).Serialize(&writer);
    keys.push_back(writer.data());
  }
  KvBuffer buffer(DataType::kBytesWritable, kPartitions,
                  static_cast<size_t>(kRecords + 1) * 64);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    state.PauseTiming();
    buffer.Clear();
    for (int64_t i = 0; i < kRecords; ++i) {
      buffer.Append(static_cast<int>(i % kPartitions),
                    keys[static_cast<size_t>(i)], value);
    }
    state.ResumeTiming();
    buffer.Sort(pool.get());
    benchmark::DoNotOptimize(buffer.records());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRecords);
}
BENCHMARK(BM_KvBufferParallelSort)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

std::string SerializedLong(int64_t v) {
  BufferWriter writer;
  LongWritable(v).Serialize(&writer);
  return writer.data();
}

// Collect+sort in the MR-SKEW sum-combine shape: 16-byte LongWritable
// records over 16 distinct keys, half of them to partition 0 and the rest
// spread over partitions 1..15. Arg = records per spill (250000 is one
// 4 MB sort buffer).
void BM_KvBufferCollectAndSortLong(benchmark::State& state) {
  const auto records = static_cast<int64_t>(state.range(0));
  constexpr int kPartitions = 16;
  std::vector<std::string> keys;
  for (int64_t k = 0; k < 16; ++k) keys.push_back(SerializedLong(k));
  const std::string value = SerializedLong(1);
  KvBuffer buffer(DataType::kLongWritable, kPartitions,
                  static_cast<size_t>(records + 1) * 32);
  for (auto _ : state) {
    buffer.Clear();
    for (int64_t i = 0; i < records; ++i) {
      const int partition =
          (i & 1) == 0 ? 0 : 1 + static_cast<int>((i >> 1) % (kPartitions - 1));
      buffer.Append(partition, keys[static_cast<size_t>(i % 16)], value);
    }
    buffer.Sort();
    benchmark::DoNotOptimize(buffer.records());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_KvBufferCollectAndSortLong)->Arg(10000)->Arg(250000);

// One whole per-spill combine in the MR-SKEW sum-combine shape (records as
// in BM_KvBufferCollectAndSortLong): collect, sort, and combine every
// partition with the sum combiner straight out of the buffer, framing and
// sealing only the combined records. Arg = records per spill.
void BM_KvBufferSpillCombineSum(benchmark::State& state) {
  const auto records = static_cast<int64_t>(state.range(0));
  constexpr int kPartitions = 16;
  std::vector<std::string> keys;
  for (int64_t k = 0; k < 16; ++k) keys.push_back(SerializedLong(k));
  const std::string value = SerializedLong(1);
  KvBuffer buffer(DataType::kLongWritable, kPartitions,
                  static_cast<size_t>(records + 1) * 32);
  const JobConf conf;
  SummingReducer combiner;
  for (auto _ : state) {
    buffer.Clear();
    for (int64_t i = 0; i < records; ++i) {
      const int partition =
          (i & 1) == 0 ? 0 : 1 + static_cast<int>((i >> 1) % (kPartitions - 1));
      buffer.Append(partition, keys[static_cast<size_t>(i % 16)], value);
    }
    buffer.Sort();
    Result<SpillSegment> spill = CombineBuffer(buffer, &combiner, conf, 0);
    benchmark::DoNotOptimize(spill->total_records());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_KvBufferSpillCombineSum)->Arg(250000);

// Per-spill combine of one sorted LongWritable run (16 distinct keys) with
// the sum combiner: the SegmentReader -> GroupedIterator -> SummingReducer
// read loop. Arg = records in the run.
void BM_CombineSortedRunSum(benchmark::State& state) {
  const auto records = static_cast<int64_t>(state.range(0));
  std::vector<std::string> keys;
  for (int64_t k = 0; k < 16; ++k) keys.push_back(SerializedLong(k));
  const std::string value = SerializedLong(1);
  KvBuffer buffer(DataType::kLongWritable, 1,
                  static_cast<size_t>(records + 1) * 32);
  for (int64_t i = 0; i < records; ++i) {
    buffer.Append(0, keys[static_cast<size_t>(i % 16)], value);
  }
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  const RawComparator* comparator = ComparatorFor(DataType::kLongWritable);
  const JobConf conf;
  SummingReducer combiner;
  for (auto _ : state) {
    Result<MergedRun> run = CombineSortedRun(spill.PartitionData(0),
                                             comparator, &combiner, conf, 0);
    benchmark::DoNotOptimize(run->records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_CombineSortedRunSum)->Arg(10000)->Arg(250000);

void BM_Partitioner(benchmark::State& state) {
  const auto pattern = static_cast<DistributionPattern>(state.range(0));
  constexpr int64_t kRecords = 100000;
  for (auto _ : state) {
    auto partitioner = MakePartitioner(pattern, 7, kRecords);
    int64_t acc = 0;
    for (int64_t i = 0; i < kRecords; ++i) {
      acc += partitioner->Partition("key", i, 16);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRecords);
}
BENCHMARK(BM_Partitioner)
    ->Arg(static_cast<int>(DistributionPattern::kAverage))
    ->Arg(static_cast<int>(DistributionPattern::kRandom))
    ->Arg(static_cast<int>(DistributionPattern::kSkewed));

void BM_PlanPartitionCounts(benchmark::State& state) {
  const auto records = static_cast<int64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanPartitionCounts(
        DistributionPattern::kRandom, 11, records, 16));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          records);
}
BENCHMARK(BM_PlanPartitionCounts)->Arg(100000)->Arg(1000000);

// The skew benchmark workload's paper-scale plan: 128 MR-SKEW maps of
// 3.73 M records each over 64 reduces (59.7 M tail draws), planned for the
// whole job at once with 1 thread and with the automatic thread count.
void BM_PlanJobPartitionCountsSkew(benchmark::State& state) {
  constexpr int kMaps = 128;
  constexpr int64_t kRecordsPerMap = 3730000;
  std::vector<uint64_t> seeds;
  for (int m = 0; m < kMaps; ++m) seeds.push_back(1 + 7919ULL * m);
  const auto threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PlanJobPartitionCounts(DistributionPattern::kSkewed, seeds,
                               kRecordsPerMap, 64, 1.0, threads)
            .data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kMaps *
                          (kRecordsPerMap / 8));
}
BENCHMARK(BM_PlanJobPartitionCountsSkew)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MaxMinFairSolver(benchmark::State& state) {
  // Shuffle-shaped problem: n nodes, all-to-all flows, one per pair.
  const int nodes = static_cast<int>(state.range(0));
  MaxMinProblem problem;
  problem.link_capacity.assign(static_cast<size_t>(2 * nodes), 1e9);
  for (int s = 0; s < nodes; ++s) {
    for (int d = 0; d < nodes; ++d) {
      if (s == d) continue;
      problem.AddClass({s, static_cast<int32_t>(nodes + d)});
    }
  }
  MaxMinSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(problem.num_classes()));
}
BENCHMARK(BM_MaxMinFairSolver)->Arg(4)->Arg(8)->Arg(16);

// What Fabric hands the solver on every membership change: `flows` active
// transfers spread over the pairs of an 8-node cluster with a backplane
// (as under oversubscription), grouped into one class per (src, dst) pair
// with its flow count, on reused scratch.
void BM_MaxMinFairSolverFabric(benchmark::State& state) {
  constexpr int kNodes = 8;
  const auto flows = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<int64_t> per_pair(kNodes * kNodes, 0);
  for (int f = 0; f < flows; ++f) {
    const auto src = static_cast<int>(rng.Uniform(kNodes));
    const auto dst = static_cast<int>(rng.Uniform(kNodes - 1));
    ++per_pair[static_cast<size_t>(src * kNodes + dst + (dst >= src))];
  }
  MaxMinProblem problem;
  problem.link_capacity.assign(2 * kNodes, 1.25e8);
  problem.link_capacity.push_back(0.5 * kNodes * 1.25e8);
  for (int pair = 0; pair < kNodes * kNodes; ++pair) {
    if (per_pair[static_cast<size_t>(pair)] == 0) continue;
    problem.AddClass({pair / kNodes, kNodes + pair % kNodes, 2 * kNodes},
                     kUnlimitedRate, per_pair[static_cast<size_t>(pair)]);
  }
  MaxMinSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * flows);
}
BENCHMARK(BM_MaxMinFairSolverFabric)->Arg(64)->Arg(512);

// ---- Shuffle data plane: CRC32C kernels -------------------------------
// Three implementations of the same Castagnoli CRC: the byte-at-a-time
// table loop (the seed's kernel, kept as the reference), slicing-by-8, and
// the SSE4.2 hardware instruction. The ISSUE acceptance bar is >= 4x for
// the dispatched kernel over the reference.

std::string RandomPayload(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string payload(size, '\0');
  rng.Fill(payload.data(), payload.size());
  return payload;
}

void BM_Crc32cReference(benchmark::State& state) {
  const std::string payload =
      RandomPayload(static_cast<size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cReference(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cReference)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_Crc32cSlicing8(benchmark::State& state) {
  const std::string payload =
      RandomPayload(static_cast<size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cSlicing8(kCrc32cInit, payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cSlicing8)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_Crc32cHardware(benchmark::State& state) {
  if (!Crc32cHardwareAvailable()) {
    state.SkipWithError("SSE4.2 CRC32 not available on this host");
    return;
  }
  const std::string payload =
      RandomPayload(static_cast<size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cHardware(kCrc32cInit, payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cHardware)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// ---- Shuffle data plane: block codec kernels --------------------------
// Compress / decompress one spill-partition-sized block of framed records.
// Text keys repeat from a small dictionary (compressible, the shuffle's
// common case); BytesWritable values are random bytes behind repeated keys.
// Two more lz4 samples cover incompressible input: pure random bytes, and
// a block that is already an lz4 frame (what the extent writer used to
// compress a second time). Both land on the stored-frame fallback.

std::string CodecSample(DataType type, size_t target_bytes) {
  RecordGenerator::Options options;
  options.type = type;
  options.key_size = 64;
  options.value_size = 192;
  options.num_unique_keys = 16;
  RecordGenerator generator(options);
  std::string sample;
  BufferWriter writer(&sample);
  std::string key;
  std::string value;
  for (int64_t i = 0; sample.size() < target_bytes; ++i) {
    generator.SerializedKey(generator.KeyIdFor(i), &key);
    generator.SerializedValue(i, &value);
    writer.AppendVarint64(static_cast<int64_t>(key.size()));
    writer.AppendVarint64(static_cast<int64_t>(value.size()));
    writer.AppendRaw(key);
    writer.AppendRaw(value);
  }
  return sample;
}

// Sample selectors past the DataType values.
constexpr int kRandomSample = 100;
constexpr int kLz4FrameSample = 101;

std::string BlockSample(int kind) {
  constexpr size_t kBytes = 1 << 20;
  if (kind == kRandomSample) return RandomPayload(kBytes, 29);
  if (kind == kLz4FrameSample) {
    std::string frame;
    const Status status = BlockCompress(
        MapOutputCodec::kLz4, CodecSample(DataType::kText, kBytes), &frame);
    return status.ok() ? frame : std::string();
  }
  return CodecSample(static_cast<DataType>(kind), kBytes);
}

void BM_BlockCompress(benchmark::State& state) {
  const auto codec = static_cast<MapOutputCodec>(state.range(0));
  const std::string sample = BlockSample(static_cast<int>(state.range(1)));
  std::string frame;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockCompress(codec, sample, &frame).ok());
  }
  if (!sample.empty()) {
    state.counters["ratio"] = static_cast<double>(frame.size()) /
                              static_cast<double>(sample.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample.size()));
}
BENCHMARK(BM_BlockCompress)
    ->Args({static_cast<int>(MapOutputCodec::kLz4),
            static_cast<int>(DataType::kText)})
    ->Args({static_cast<int>(MapOutputCodec::kLz4),
            static_cast<int>(DataType::kBytesWritable)})
    ->Args({static_cast<int>(MapOutputCodec::kLz4), kRandomSample})
    ->Args({static_cast<int>(MapOutputCodec::kLz4), kLz4FrameSample})
    ->Args({static_cast<int>(MapOutputCodec::kDeflate),
            static_cast<int>(DataType::kText)})
    ->Args({static_cast<int>(MapOutputCodec::kDeflate),
            static_cast<int>(DataType::kBytesWritable)});

void BM_BlockDecompress(benchmark::State& state) {
  const auto codec = static_cast<MapOutputCodec>(state.range(0));
  const std::string sample = BlockSample(static_cast<int>(state.range(1)));
  std::string frame;
  if (!BlockCompress(codec, sample, &frame).ok()) {
    state.SkipWithError("compression failed");
    return;
  }
  std::string raw;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockDecompress(frame, &raw).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample.size()));
}
BENCHMARK(BM_BlockDecompress)
    ->Args({static_cast<int>(MapOutputCodec::kLz4),
            static_cast<int>(DataType::kText)})
    ->Args({static_cast<int>(MapOutputCodec::kLz4),
            static_cast<int>(DataType::kBytesWritable)})
    ->Args({static_cast<int>(MapOutputCodec::kLz4), kRandomSample})
    ->Args({static_cast<int>(MapOutputCodec::kLz4), kLz4FrameSample})
    ->Args({static_cast<int>(MapOutputCodec::kDeflate),
            static_cast<int>(DataType::kText)})
    ->Args({static_cast<int>(MapOutputCodec::kDeflate),
            static_cast<int>(DataType::kBytesWritable)});

void BM_RecordGeneration(benchmark::State& state, DataType type) {
  RecordGenerator::Options options;
  options.type = type;
  options.key_size = static_cast<size_t>(state.range(0));
  options.value_size = static_cast<size_t>(state.range(0));
  options.num_unique_keys = 8;
  RecordGenerator generator(options);
  std::string key;
  std::string value;
  int64_t i = 0;
  for (auto _ : state) {
    generator.SerializedKey(generator.KeyIdFor(i), &key);
    generator.SerializedValue(i, &value);
    benchmark::DoNotOptimize(key.data());
    benchmark::DoNotOptimize(value.data());
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_RecordGeneration, bytes, DataType::kBytesWritable)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_RecordGeneration, text, DataType::kText)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096);

}  // namespace
}  // namespace mrmb

BENCHMARK_MAIN();
