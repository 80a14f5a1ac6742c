#include "io/key_prefix.h"

#include <algorithm>

#include "common/logging.h"
#include "io/byte_buffer.h"

namespace mrmb {

namespace {

// Big-endian load of up to 8 payload bytes, zero-padded on the right.
// Comparing two such values is exactly lexicographic comparison of the
// padded byte strings, which never contradicts the full comparison: the
// first differing payload byte within the prefix decides both, and a short
// key padded with zeros sorts no later than any extension of it.
uint64_t LoadPrefixBigEndian(std::string_view payload) {
  uint64_t v = 0;
  const size_t n = std::min<size_t>(payload.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(payload[i]))
         << (56 - 8 * i);
  }
  return v;
}

}  // namespace

uint64_t NormalizedKeyPrefix(DataType type, std::string_view key) {
  switch (type) {
    case DataType::kBytesWritable:
      // 4-byte big-endian length header, then raw payload.
      MRMB_CHECK_GE(key.size(), 4u);
      return LoadPrefixBigEndian(key.substr(4));
    case DataType::kText: {
      // Hadoop vint byte-length header, then UTF-8 payload.
      int64_t len = 0;
      size_t hdr = 0;
      MRMB_CHECK_OK(DecodeVarint64(key, &len, &hdr));
      return LoadPrefixBigEndian(key.substr(hdr));
    }
    case DataType::kIntWritable: {
      // 4-byte big-endian two's complement; flipping the sign bit maps the
      // signed order onto unsigned order. Occupies the top 32 bits.
      MRMB_CHECK_GE(key.size(), 4u);
      const uint32_t v = LoadBigEndian32(key.data()) ^ 0x80000000u;
      return static_cast<uint64_t>(v) << 32;
    }
    case DataType::kLongWritable: {
      MRMB_CHECK_GE(key.size(), 8u);
      return LoadBigEndian64(key.data()) ^ (1ULL << 63);
    }
    case DataType::kNullWritable:
      return 0;
  }
  return 0;
}

bool KeyWireFormatValid(DataType type, std::string_view key) {
  switch (type) {
    case DataType::kBytesWritable: {
      if (key.size() < 4) return false;
      uint32_t len = 0;
      for (size_t i = 0; i < 4; ++i) {
        len = (len << 8) | static_cast<uint8_t>(key[i]);
      }
      return len == key.size() - 4;
    }
    case DataType::kText: {
      int64_t len = 0;
      size_t hdr = 0;
      if (!DecodeVarint64(key, &len, &hdr).ok()) return false;
      return len >= 0 && static_cast<size_t>(len) == key.size() - hdr;
    }
    case DataType::kIntWritable:
      return key.size() == 4;
    case DataType::kLongWritable:
      return key.size() == 8;
    case DataType::kNullWritable:
      return key.empty();
  }
  return false;
}

bool PrefixIsDecisive(DataType type) {
  switch (type) {
    case DataType::kIntWritable:
    case DataType::kLongWritable:
    case DataType::kNullWritable:
      return true;
    case DataType::kBytesWritable:
    case DataType::kText:
      return false;
  }
  return false;
}

}  // namespace mrmb
