#include "io/checksum.h"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

#if defined(__x86_64__) || defined(__i386__)
#define MRMB_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace mrmb {

namespace {

// CRC32C (Castagnoli, reflected polynomial 0x82f63b78) lookup tables.
// Table 0 is the classic slice-by-one table; tables 1..7 extend it so that
// table[k][b] is the CRC contribution of byte value b placed k positions
// before the end of an 8-byte window.
const std::array<std::array<uint32_t, 256>, 8>& Crc32cTables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

bool HardwareDisabledByEnv() {
  const char* env = std::getenv("MRMB_DISABLE_HW_CRC32C");
  if (env == nullptr) return false;
  return !(env[0] == '\0' || (env[0] == '0' && env[1] == '\0'));
}

using Crc32cFn = uint32_t (*)(uint32_t, std::string_view);

Crc32cFn ResolveCrc32c() {
  if (Crc32cHardwareAvailable() && !HardwareDisabledByEnv()) {
    return &Crc32cHardware;
  }
  return &Crc32cSlicing8;
}

Crc32cFn DispatchedCrc32c() {
  static const Crc32cFn fn = ResolveCrc32c();
  return fn;
}

}  // namespace

uint32_t Crc32cReference(uint32_t crc, std::string_view data) {
  const std::array<uint32_t, 256>& table = Crc32cTables()[0];
  crc = ~crc;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<uint8_t>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cSlicing8(uint32_t crc, std::string_view data) {
  if constexpr (std::endian::native != std::endian::little) {
    // The 8-byte-load formulation below assumes little-endian lane order;
    // big-endian hosts fall back to the bit-identical reference kernel.
    return Crc32cReference(crc, data);
  }
  const auto& t = Crc32cTables();
  const char* p = data.data();
  size_t len = data.size();
  crc = ~crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef MRMB_CRC32C_X86

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

#if defined(__x86_64__)

namespace {

// Advances a raw (uninverted) CRC32C state over a fixed run of zero bytes:
// table[k][b] is the image of byte b of the state, k bytes from the low end.
// CRC state is linear, so the CRC of X||Y from state s is
// Shift(s after X, |Y|) ^ (state after Y from 0) — which is how three
// independently computed streams join.
struct Crc32cShift {
  std::array<std::array<uint32_t, 256>, 4> table;

  explicit Crc32cShift(size_t zero_bytes) {
    const std::array<uint32_t, 256>& t0 = Crc32cTables()[0];
    uint32_t bit_image[32] = {};
    for (int bit = 0; bit < 32; ++bit) {
      uint32_t crc = uint32_t{1} << bit;
      for (size_t i = 0; i < zero_bytes; ++i) crc = t0[crc & 0xff] ^ (crc >> 8);
      bit_image[bit] = crc;
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t image = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((b >> bit) & 1) image ^= bit_image[8 * k + bit];
        }
        table[static_cast<size_t>(k)][b] = image;
      }
    }
  }

  uint32_t Apply(uint32_t crc) const {
    return table[0][crc & 0xff] ^ table[1][(crc >> 8) & 0xff] ^
           table[2][(crc >> 16) & 0xff] ^ table[3][crc >> 24];
  }
};

// Bytes per stream in one round of three.
constexpr size_t kStreamBlock = 256;

const Crc32cShift& StreamBlockShift() {
  static const Crc32cShift shift(kStreamBlock);
  return shift;
}

inline uint64_t Load64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// Consumes whole rounds of three kStreamBlock-byte streams from `*p`. The
// `crc32` instruction has a latency of three cycles and a throughput of
// one per cycle, so three independent streams keep it busy.
__attribute__((target("sse4.2"))) uint32_t Crc32cThreeStreams(
    uint32_t crc, const char** p, size_t* len) {
  const Crc32cShift& shift = StreamBlockShift();
  while (*len >= 3 * kStreamBlock) {
    const char* a = *p;
    const char* b = a + kStreamBlock;
    const char* c = b + kStreamBlock;
    uint64_t crc0 = crc;
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kStreamBlock; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(a + i));
      crc1 = _mm_crc32_u64(crc1, Load64(b + i));
      crc2 = _mm_crc32_u64(crc2, Load64(c + i));
    }
    crc = shift.Apply(shift.Apply(static_cast<uint32_t>(crc0)) ^
                      static_cast<uint32_t>(crc1)) ^
          static_cast<uint32_t>(crc2);
    *p += 3 * kStreamBlock;
    *len -= 3 * kStreamBlock;
  }
  return crc;
}

}  // namespace

#endif  // __x86_64__

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    uint32_t crc, std::string_view data) {
  const char* p = data.data();
  size_t len = data.size();
  crc = ~crc;
#if defined(__x86_64__)
  crc = Crc32cThreeStreams(crc, &p, &len);
  uint64_t crc64 = crc;
  while (len >= 8) {
    crc64 = _mm_crc32_u64(crc64, Load64(p));
    p += 8;
    len -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#else
  while (len >= 4) {
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    len -= 4;
  }
#endif
  while (len-- > 0) {
    crc = _mm_crc32_u8(crc, static_cast<uint8_t>(*p++));
  }
  return ~crc;
}

#else  // !MRMB_CRC32C_X86

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cHardware(uint32_t crc, std::string_view data) {
  // Never dispatched to on non-x86; defined so callers always link.
  return Crc32cSlicing8(crc, data);
}

#endif  // MRMB_CRC32C_X86

uint32_t Crc32c(uint32_t crc, std::string_view data) {
  return DispatchedCrc32c()(crc, data);
}

const char* Crc32cImplName() {
  return DispatchedCrc32c() == &Crc32cHardware ? "sse4.2" : "slicing-by-8";
}

void SealSegment(SpillSegment* segment) {
  MRMB_CHECK(segment != nullptr);
  for (size_t p = 0; p < segment->partitions.size(); ++p) {
    segment->partitions[p].crc =
        Crc32c(segment->PartitionData(static_cast<int>(p)));
  }
  segment->sealed = true;
}

Status VerifySegmentPartition(const SpillSegment& segment, int partition) {
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(static_cast<size_t>(partition), segment.partitions.size());
  if (!segment.sealed) {
    return Status::FailedPrecondition(
        "segment was never sealed; cannot verify partition " +
        std::to_string(partition));
  }
  const SpillSegment::PartitionRange& range =
      segment.partitions[static_cast<size_t>(partition)];
  const uint32_t actual = Crc32c(segment.PartitionData(partition));
  if (actual != range.crc) {
    return Status::DataLoss(StringPrintf(
        "partition %d failed CRC32C verification (stored %08x, computed "
        "%08x over %lld bytes)",
        partition, range.crc, actual, static_cast<long long>(range.length)));
  }
  return Status::OK();
}

Status VerifySegment(const SpillSegment& segment) {
  for (size_t p = 0; p < segment.partitions.size(); ++p) {
    MRMB_RETURN_IF_ERROR(VerifySegmentPartition(segment, static_cast<int>(p)));
  }
  return Status::OK();
}

bool FindCrc32cSingleBitFlip(uint32_t syndrome, size_t len, size_t* byte_index,
                             int* bit_index) {
  if (len == 0 || syndrome == 0) return false;
  const std::array<uint32_t, 256>& table = Crc32cTables()[0];
  // delta[b] is the CRC difference caused by flipping bit b of the byte
  // currently under the scan, propagated through the bytes behind it. The
  // init/xorout constants cancel in the XOR of two checksums, and the table
  // is XOR-linear (table[x ^ y] == table[x] ^ table[y]), so each step behind
  // the flip advances the difference exactly like one zero byte of state:
  //   delta' = table[delta & 0xff] ^ (delta >> 8).
  uint32_t delta[8];
  for (int b = 0; b < 8; ++b) delta[b] = table[1u << b];
  for (size_t back = 0; back < len; ++back) {
    for (int b = 0; b < 8; ++b) {
      if (delta[b] == syndrome) {
        *byte_index = len - 1 - back;
        *bit_index = b;
        return true;
      }
    }
    for (int b = 0; b < 8; ++b) {
      delta[b] = table[delta[b] & 0xff] ^ (delta[b] >> 8);
    }
  }
  return false;
}

}  // namespace mrmb
