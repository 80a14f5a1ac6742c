// Synthetic record generation for the stand-alone micro-benchmarks.
//
// The paper's NullInputFormat mappers generate a user-specified number of
// key/value pairs of configured sizes in memory. To keep the reduce phase
// meaningful while avoiding skewed hashing artifacts, "we restrict the
// number of unique pairs generated to the number of reducers specified"
// (Sect. 4.2) — RecordGenerator does the same: key identity cycles over
// `num_unique_keys`.
//
// Key bytes are a pure function of the key id (equal ids produce identical
// serialized keys — required for correct grouping); value bytes vary by
// record index. Text payloads are printable ASCII; BytesWritable payloads
// are raw pseudo-random bytes. The numeric types (IntWritable /
// LongWritable — the "other data types" the paper lists as future work)
// ignore the payload-size options: the key is the key id and the value is
// the record index, in their fixed-width wire forms.

#ifndef MRMB_IO_RECORD_GEN_H_
#define MRMB_IO_RECORD_GEN_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "io/writable.h"

namespace mrmb {

class RecordGenerator {
 public:
  struct Options {
    DataType type = DataType::kBytesWritable;  // applies to key and value
    // Payload bytes per key/value; ignored by fixed-width numeric types.
    size_t key_size = 1024;
    size_t value_size = 1024;
    int num_unique_keys = 8;                   // usually = number of reducers
    uint64_t seed = 1;
  };

  explicit RecordGenerator(Options options);

  // Logical key id for record `index` (cycles over unique keys).
  int64_t KeyIdFor(int64_t index) const {
    return index % options_.num_unique_keys;
  }

  // Serialized key for `key_id`, appended to `out` (cleared first).
  void SerializedKey(int64_t key_id, std::string* out) const;

  // Serialized value for record `index`, appended to `out` (cleared first).
  void SerializedValue(int64_t index, std::string* out) const;

  // Wire size of one serialized key / value.
  size_t serialized_key_size() const { return serialized_key_size_; }
  size_t serialized_value_size() const { return serialized_value_size_; }

  // IFile-framed record size (what one record contributes to shuffle data).
  size_t framed_record_size() const;

  // Number of records needed so framed shuffle data totals >= target_bytes.
  int64_t RecordsForShuffleBytes(int64_t target_bytes) const;

  const Options& options() const { return options_; }

 private:
  // Appends `len` payload bytes of the stream seeded by `stream_seed`.
  void FillPayload(uint64_t stream_seed, size_t len, std::string* out) const;
  // Appends the Text / BytesWritable length prefix of a `len`-byte payload.
  void AppendPayloadLength(size_t len, std::string* out) const;

  Options options_;
  size_t serialized_key_size_ = 0;
  size_t serialized_value_size_ = 0;
};

}  // namespace mrmb

#endif  // MRMB_IO_RECORD_GEN_H_
