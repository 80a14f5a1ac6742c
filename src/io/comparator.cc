#include "io/comparator.h"

#include <cstring>

#include "common/logging.h"
#include "io/byte_buffer.h"

namespace mrmb {

namespace {

int CompareBytes(std::string_view a, std::string_view b) {
  const size_t common = std::min(a.size(), b.size());
  const int cmp = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
  if (cmp != 0) return cmp;
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

class BytesComparator final : public RawComparator {
 public:
  int Compare(std::string_view a, std::string_view b) const override {
    // Strip the 4-byte length prefix and compare payloads
    // lexicographically — identical to BytesWritable.Comparator.
    MRMB_CHECK_GE(a.size(), 4u);
    MRMB_CHECK_GE(b.size(), 4u);
    return CompareBytes(a.substr(4), b.substr(4));
  }
  DataType type() const override { return DataType::kBytesWritable; }
};

class TextComparator final : public RawComparator {
 public:
  int Compare(std::string_view a, std::string_view b) const override {
    int64_t len_a = 0, len_b = 0;
    size_t hdr_a = 0, hdr_b = 0;
    MRMB_CHECK_OK(DecodeVarint64(a, &len_a, &hdr_a));
    MRMB_CHECK_OK(DecodeVarint64(b, &len_b, &hdr_b));
    return CompareBytes(a.substr(hdr_a), b.substr(hdr_b));
  }
  DataType type() const override { return DataType::kText; }
};

class IntComparator final : public RawComparator {
 public:
  int Compare(std::string_view a, std::string_view b) const override {
    const int32_t va = Decode(a);
    const int32_t vb = Decode(b);
    return va < vb ? -1 : (va > vb ? 1 : 0);
  }
  DataType type() const override { return DataType::kIntWritable; }

 private:
  static int32_t Decode(std::string_view raw) {
    MRMB_CHECK_GE(raw.size(), 4u);
    return static_cast<int32_t>(LoadBigEndian32(raw.data()));
  }
};

class LongComparator final : public RawComparator {
 public:
  int Compare(std::string_view a, std::string_view b) const override {
    const int64_t va = Decode(a);
    const int64_t vb = Decode(b);
    return va < vb ? -1 : (va > vb ? 1 : 0);
  }
  DataType type() const override { return DataType::kLongWritable; }

 private:
  static int64_t Decode(std::string_view raw) {
    MRMB_CHECK_GE(raw.size(), 8u);
    return static_cast<int64_t>(LoadBigEndian64(raw.data()));
  }
};

class NullComparator final : public RawComparator {
 public:
  int Compare(std::string_view, std::string_view) const override { return 0; }
  DataType type() const override { return DataType::kNullWritable; }
};

}  // namespace

const RawComparator* ComparatorFor(DataType type) {
  static const BytesComparator* bytes = new BytesComparator;
  static const TextComparator* text = new TextComparator;
  static const IntComparator* ints = new IntComparator;
  static const LongComparator* longs = new LongComparator;
  static const NullComparator* nulls = new NullComparator;
  switch (type) {
    case DataType::kBytesWritable:
      return bytes;
    case DataType::kText:
      return text;
    case DataType::kIntWritable:
      return ints;
    case DataType::kLongWritable:
      return longs;
    case DataType::kNullWritable:
      return nulls;
  }
  return bytes;
}

}  // namespace mrmb
