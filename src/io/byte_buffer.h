// Byte-oriented serialization primitives.
//
// BufferWriter appends big-endian fixed-width integers, Hadoop-style
// variable-length integers (WritableUtils.writeVInt encoding) and raw bytes
// to a growable buffer. BufferReader is the matching cursor-based decoder;
// all reads are bounds-checked and return Status instead of throwing.

#ifndef MRMB_IO_BYTE_BUFFER_H_
#define MRMB_IO_BYTE_BUFFER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mrmb {

// Host <-> big-endian (network order) conversion; an involution.
inline uint32_t BigEndian32(uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap32(v);
  }
  return v;
}
inline uint64_t BigEndian64(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  }
  return v;
}

// Big-endian loads of 4 / 8 bytes at `p` (no alignment required).
inline uint32_t LoadBigEndian32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return BigEndian32(v);
}
inline uint64_t LoadBigEndian64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return BigEndian64(v);
}

// Longest Hadoop vint: a marker byte plus 8 magnitude bytes.
inline constexpr size_t kMaxVarintLength = 9;

// The multi-byte half of EncodeVarint64 (values outside [-112, 127]).
size_t EncodeMultiByteVarint64(int64_t value, char* out);

// Writes the Hadoop vint for `value` to `out`, which needs room for
// VarintLength(value) bytes, and returns the number of bytes written.
inline size_t EncodeVarint64(int64_t value, char* out) {
  if (value >= -112 && value <= 127) {
    *out = static_cast<char>(value);
    return 1;
  }
  return EncodeMultiByteVarint64(value, out);
}

// Returns the encoded size of a Hadoop vint for `value`.
inline size_t VarintLength(int64_t value) {
  if (value >= -112 && value <= 127) return 1;
  uint64_t magnitude = value < 0 ? ~static_cast<uint64_t>(value)
                                 : static_cast<uint64_t>(value);
  size_t bytes = 0;
  while (magnitude != 0) {
    magnitude >>= 8;
    ++bytes;
  }
  return 1 + bytes;
}

class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::string* out) : external_(out) {}

  // Big-endian fixed-width writes (Hadoop DataOutput convention).
  void AppendFixed32(uint32_t value) {
    const uint32_t be = BigEndian32(value);
    AppendRaw(&be, sizeof(be));
  }
  void AppendFixed64(uint64_t value) {
    const uint64_t be = BigEndian64(value);
    AppendRaw(&be, sizeof(be));
  }
  void AppendByte(uint8_t value) { buffer().push_back(static_cast<char>(value)); }
  void AppendRaw(const void* data, size_t len) {
    buffer().append(static_cast<const char*>(data), len);
  }
  void AppendRaw(std::string_view data) { buffer().append(data); }

  // Hadoop WritableUtils vint: single byte for [-112, 127]; otherwise a
  // length/sign marker byte followed by 1..8 magnitude bytes.
  void AppendVarint64(int64_t value) {
    if (value >= -112 && value <= 127) {
      AppendByte(static_cast<uint8_t>(value));
      return;
    }
    char bytes[kMaxVarintLength];
    AppendRaw(bytes, EncodeMultiByteVarint64(value, bytes));
  }

  const std::string& data() const { return external_ ? *external_ : owned_; }
  std::string& buffer() { return external_ ? *external_ : owned_; }
  size_t size() const { return data().size(); }
  void Clear() { buffer().clear(); }

 private:
  std::string owned_;
  std::string* external_ = nullptr;
};

class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  Status ReadFixed32(uint32_t* value);
  Status ReadFixed64(uint64_t* value);
  Status ReadByte(uint8_t* value);
  Status ReadVarint64(int64_t* value);
  // Returns a view into the underlying data (no copy); valid while the
  // source buffer lives.
  Status ReadRaw(size_t len, std::string_view* out);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Decodes a Hadoop vint directly from `data`; on success stores the value
// and the encoded length. Used by raw comparators to skip length prefixes
// without a full reader.
Status DecodeVarint64(std::string_view data, int64_t* value, size_t* length);

}  // namespace mrmb

#endif  // MRMB_IO_BYTE_BUFFER_H_
