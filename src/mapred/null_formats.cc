#include "mapred/null_formats.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "io/byte_buffer.h"

namespace mrmb {

namespace {

// Single empty record, as the paper's dummy splits carry.
class DummyReader final : public RecordReader {
 public:
  bool Next(std::string* key, std::string* value) override {
    if (consumed_) return false;
    consumed_ = true;
    key->clear();
    value->clear();
    return true;
  }

 private:
  bool consumed_ = false;
};

class DiscardingWriter final : public RecordWriter {
 public:
  DiscardingWriter(std::atomic<int64_t>* records, std::atomic<int64_t>* bytes)
      : records_(records), bytes_(bytes) {}

  void Write(std::string_view key, std::string_view value) override {
    records_->fetch_add(1, std::memory_order_relaxed);
    bytes_->fetch_add(static_cast<int64_t>(key.size() + value.size()),
                      std::memory_order_relaxed);
  }

  Status Close() override { return Status::OK(); }

 private:
  std::atomic<int64_t>* records_;
  std::atomic<int64_t>* bytes_;
};

}  // namespace

std::vector<InputSplit> NullInputFormat::GetSplits(const JobConf& conf,
                                                   int num_splits) {
  (void)conf;
  std::vector<InputSplit> splits;
  splits.reserve(static_cast<size_t>(num_splits));
  for (int i = 0; i < num_splits; ++i) {
    InputSplit split;
    split.split_id = i;
    split.num_records = 1;  // one dummy record
    splits.push_back(split);
  }
  return splits;
}

std::unique_ptr<RecordReader> NullInputFormat::CreateReader(
    const JobConf& /*conf*/, const InputSplit& /*split*/) {
  return std::make_unique<DummyReader>();
}

std::unique_ptr<RecordWriter> NullOutputFormat::CreateWriter(
    const JobConf& /*conf*/, int /*partition*/) {
  return std::make_unique<DiscardingWriter>(&records_, &bytes_);
}

GeneratingMapper::GeneratingMapper(const JobConf& conf, int task_id)
    : conf_(conf), task_id_(task_id), generator_([&] {
        RecordGenerator::Options options = conf.record;
        // Keys must be bit-identical across tasks (grouping correctness),
        // so the generator seed stays job-global; value uniqueness comes
        // from the globally-offset record index below.
        options.seed = conf.seed;
        return options;
      }()) {}

void GeneratingMapper::Map(std::string_view /*key*/,
                           std::string_view /*value*/, MapContext* context) {
  // Keys are a pure function of their id, so the ids this map cycles over
  // are serialized once, unless that many key bytes would not stay small.
  constexpr size_t kMaxKeyCacheBytes = size_t{1} << 20;
  const int64_t records = conf_.records_per_map;
  const int64_t distinct_keys = std::min<int64_t>(
      generator_.options().num_unique_keys, records);
  const int64_t base = static_cast<int64_t>(task_id_) * records;
  std::string value_out;
  if (static_cast<size_t>(distinct_keys) * generator_.serialized_key_size() <=
      kMaxKeyCacheBytes) {
    std::vector<std::string> keys(static_cast<size_t>(distinct_keys));
    for (int64_t id = 0; id < distinct_keys; ++id) {
      generator_.SerializedKey(id, &keys[static_cast<size_t>(id)]);
    }
    size_t next_key = 0;
    for (int64_t i = 0; i < records; ++i) {
      generator_.SerializedValue(base + i, &value_out);
      context->Emit(keys[next_key], value_out);
      if (++next_key == keys.size()) next_key = 0;
    }
    return;
  }
  std::string key_out;
  for (int64_t i = 0; i < records; ++i) {
    generator_.SerializedKey(generator_.KeyIdFor(i), &key_out);
    generator_.SerializedValue(base + i, &value_out);
    context->Emit(key_out, value_out);
  }
}

void SummingReducer::Reduce(std::string_view key, ValueIterator* values,
                            ReduceContext* context) {
  // Unsigned arithmetic: int64 wraparound keeps the sum order-insensitive.
  uint64_t sum = 0;
  while (values->Next()) {
    const std::string_view value = values->value();
    MRMB_CHECK_EQ(value.size(), 8u) << "SummingReducer needs LongWritable";
    sum += LoadBigEndian64(value.data());
  }
  const uint64_t wire = BigEndian64(sum);
  char out[8];
  std::memcpy(out, &wire, sizeof(out));
  context->Emit(key, std::string_view(out, sizeof(out)));
}

ReducerFactory MakeBuiltinCombiner(CombinerKind kind) {
  switch (kind) {
    case CombinerKind::kNone:
      return nullptr;
    case CombinerKind::kSum:
      return [](int) { return std::make_unique<SummingReducer>(); };
  }
  return nullptr;
}

void DiscardingReducer::Reduce(std::string_view key, ValueIterator* values,
                               ReduceContext* /*context*/) {
  ++groups_;
  bytes_ += static_cast<int64_t>(key.size());
  while (values->Next()) {
    ++values_seen_;
    bytes_ += static_cast<int64_t>(values->value().size());
  }
}

}  // namespace mrmb
