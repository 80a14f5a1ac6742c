#include "io/byte_buffer.h"

namespace mrmb {

size_t EncodeMultiByteVarint64(int64_t value, char* out) {
  // Hadoop WritableUtils.writeVLong encoding: a marker byte carrying the
  // sign and byte count, then the magnitude big-endian.
  const bool negative = value < 0;
  const uint64_t magnitude = negative ? ~static_cast<uint64_t>(value)
                                      : static_cast<uint64_t>(value);
  const size_t num_bytes = VarintLength(value) - 1;
  out[0] = static_cast<char>((negative ? -120 : -112) -
                             static_cast<int>(num_bytes));
  for (size_t i = 0; i < num_bytes; ++i) {
    out[1 + i] = static_cast<char>(magnitude >> (8 * (num_bytes - 1 - i)));
  }
  return 1 + num_bytes;
}

Status BufferReader::ReadByte(uint8_t* value) {
  if (remaining() < 1) return Status::OutOfRange("buffer underflow");
  *value = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status BufferReader::ReadFixed32(uint32_t* value) {
  if (remaining() < 4) return Status::OutOfRange("buffer underflow");
  *value = LoadBigEndian32(data_.data() + pos_);
  pos_ += 4;
  return Status::OK();
}

Status BufferReader::ReadFixed64(uint64_t* value) {
  if (remaining() < 8) return Status::OutOfRange("buffer underflow");
  *value = LoadBigEndian64(data_.data() + pos_);
  pos_ += 8;
  return Status::OK();
}

Status BufferReader::ReadVarint64(int64_t* value) {
  size_t length = 0;
  MRMB_RETURN_IF_ERROR(
      DecodeVarint64(data_.substr(pos_), value, &length));
  pos_ += length;
  return Status::OK();
}

Status BufferReader::ReadRaw(size_t len, std::string_view* out) {
  if (remaining() < len) return Status::OutOfRange("buffer underflow");
  *out = data_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status DecodeVarint64(std::string_view data, int64_t* value, size_t* length) {
  if (data.empty()) return Status::OutOfRange("vint underflow");
  const auto first = static_cast<int8_t>(data[0]);
  if (first >= -112) {
    *value = first;
    *length = 1;
    return Status::OK();
  }
  const bool negative = first < -120;
  const int num_bytes = negative ? -(first + 120) : -(first + 112);
  if (data.size() < static_cast<size_t>(num_bytes) + 1) {
    return Status::OutOfRange("vint underflow");
  }
  uint64_t magnitude = 0;
  for (int i = 0; i < num_bytes; ++i) {
    magnitude = (magnitude << 8) |
                static_cast<uint8_t>(data[static_cast<size_t>(i) + 1]);
  }
  *value = negative ? static_cast<int64_t>(~magnitude)
                    : static_cast<int64_t>(magnitude);
  *length = static_cast<size_t>(num_bytes) + 1;
  return Status::OK();
}

}  // namespace mrmb
