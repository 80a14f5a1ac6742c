#include "io/record_gen.h"

#include "common/logging.h"
#include "io/byte_buffer.h"

namespace mrmb {

RecordGenerator::RecordGenerator(Options options)
    : options_(options) {
  MRMB_CHECK_GT(options_.num_unique_keys, 0);
  MRMB_CHECK(options_.type == DataType::kBytesWritable ||
             options_.type == DataType::kText ||
             options_.type == DataType::kIntWritable ||
             options_.type == DataType::kLongWritable)
      << "record generation supports BytesWritable, Text, IntWritable and "
         "LongWritable";
  if (options_.type == DataType::kBytesWritable ||
      options_.type == DataType::kText) {
    MRMB_CHECK_GE(options_.key_size, sizeof(uint64_t))
        << "key payload must fit the 8-byte key id";
  }
  serialized_key_size_ = SerializedSizeFor(options_.type, options_.key_size);
  serialized_value_size_ =
      SerializedSizeFor(options_.type, options_.value_size);
}

void RecordGenerator::FillPayload(uint64_t stream_seed, size_t len,
                                  std::string* out) const {
  const size_t start = out->size();
  out->resize(start + len);
  Rng rng(stream_seed);
  rng.Fill(out->data() + start, len);
  if (options_.type != DataType::kText) return;
  // Text payloads must be valid UTF-8; map every byte to 'a'..'z'.
  // c - 26 * ((c * 2521) >> 16) == c % 26 for every byte value, and the
  // fixed 16-byte inner loop vectorizes at -O2 as well as -O3.
  auto* p = reinterpret_cast<unsigned char*>(out->data() + start);
  const auto to_letter = [](unsigned c) {
    return static_cast<unsigned char>('a' + c - 26 * ((c * 2521) >> 16));
  };
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    for (size_t j = 0; j < 16; ++j) p[i + j] = to_letter(p[i + j]);
  }
  for (; i < len; ++i) p[i] = to_letter(p[i]);
}

void RecordGenerator::AppendPayloadLength(size_t len, std::string* out) const {
  BufferWriter writer(out);
  if (options_.type == DataType::kBytesWritable) {
    writer.AppendFixed32(static_cast<uint32_t>(len));  // BytesWritable
  } else {
    writer.AppendVarint64(static_cast<int64_t>(len));  // Text
  }
}

void RecordGenerator::SerializedKey(int64_t key_id, std::string* out) const {
  out->clear();
  if (options_.type == DataType::kIntWritable) {
    BufferWriter writer(out);
    IntWritable(static_cast<int32_t>(key_id)).Serialize(&writer);
    return;
  }
  if (options_.type == DataType::kLongWritable) {
    BufferWriter writer(out);
    LongWritable(key_id).Serialize(&writer);
    return;
  }
  out->reserve(serialized_key_size_);
  AppendPayloadLength(options_.key_size, out);
  // Big-endian key id first: distinct ids sort and compare distinctly, and
  // identical ids yield identical bytes.
  for (int i = 0; i < 8; ++i) {
    const auto c = static_cast<unsigned char>(static_cast<uint64_t>(key_id) >>
                                              (56 - 8 * i));
    out->push_back(static_cast<char>(
        options_.type == DataType::kText ? 'a' + c % 26 : c));
  }
  FillPayload(options_.seed ^ (0x517cc1b727220a95ULL +
                               static_cast<uint64_t>(key_id)),
              options_.key_size - 8, out);
}

void RecordGenerator::SerializedValue(int64_t index, std::string* out) const {
  out->clear();
  if (options_.type == DataType::kIntWritable) {
    BufferWriter writer(out);
    IntWritable(static_cast<int32_t>(index & 0x7fffffff)).Serialize(&writer);
    return;
  }
  if (options_.type == DataType::kLongWritable) {
    BufferWriter writer(out);
    LongWritable(index).Serialize(&writer);
    return;
  }
  out->reserve(serialized_value_size_);
  AppendPayloadLength(options_.value_size, out);
  FillPayload(options_.seed ^ (0x2545f4914f6cdd1dULL +
                               static_cast<uint64_t>(index)),
              options_.value_size, out);
}

size_t RecordGenerator::framed_record_size() const {
  return VarintLength(static_cast<int64_t>(serialized_key_size_)) +
         VarintLength(static_cast<int64_t>(serialized_value_size_)) +
         serialized_key_size_ + serialized_value_size_;
}

int64_t RecordGenerator::RecordsForShuffleBytes(int64_t target_bytes) const {
  const auto frame = static_cast<int64_t>(framed_record_size());
  return (target_bytes + frame - 1) / frame;
}

}  // namespace mrmb
