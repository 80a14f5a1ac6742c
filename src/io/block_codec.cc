#include "io/block_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/codec.h"

namespace mrmb {

namespace {

constexpr uint32_t kFrameMagic = 0x4d42424bu;  // "MBBK"

constexpr uint8_t kMethodStored = 0;
constexpr uint8_t kMethodLz4 = 1;
constexpr uint8_t kMethodDeflate = 2;

// Frames larger than this are rejected before any allocation happens; the
// data plane compresses per-partition ranges, which are orders of magnitude
// smaller.
constexpr uint64_t kMaxFrameRawSize = 1ull << 32;

// --- LZ4 fast-mode parameters ---
constexpr size_t kMinMatch = 4;
constexpr int kHashBits = 14;         // 32 KiB table of 16-bit positions
// A literal run widens the probe step by one byte every 2^kSkipTrigger
// failed probes, so incompressible input is skimmed, not hashed per byte.
constexpr int kSkipTrigger = 6;
// The classic LZ4 end-of-block restrictions: no match starts within the
// last 12 bytes, and the final 5 bytes are always literals. They guarantee
// the decoder's token/offset reads never straddle the end of the stream.
constexpr size_t kMatchStartMargin = 12;
constexpr size_t kLastLiterals = 5;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t HashQuad(uint32_t quad) {
  return (quad * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, eight bytes per compare.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  static_assert(std::endian::native == std::endian::little,
                "word-wise match extension assumes little-endian loads");
  size_t len = 0;
  for (; len + sizeof(uint64_t) <= max_len; len += sizeof(uint64_t)) {
    uint64_t wa;
    uint64_t wb;
    std::memcpy(&wa, a + len, sizeof(wa));
    std::memcpy(&wb, b + len, sizeof(wb));
    if (wa != wb) return len + (std::countr_zero(wa ^ wb) >> 3);
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// Writes `len` into a token nibble (at `shift`) plus its 255-run extension.
uint8_t* AppendLength(size_t len, int shift, uint8_t* token, uint8_t* op) {
  *token |= static_cast<uint8_t>(std::min<size_t>(len, 15) << shift);
  if (len < 15) return op;
  for (len -= 15; len >= 255; len -= 255) *op++ = 0xff;
  *op++ = static_cast<uint8_t>(len);
  return op;
}

// Copies `len` bytes to dst from src, which sits `gap` bytes before dst in
// the same buffer (SIZE_MAX: another buffer); `room` bytes past either are
// addressable. With that slack, 16-byte chunks may overrun `len`; a match
// overlapping its own output (gap < len) otherwise copies 8 bytes at a time
// when gap >= 8, byte by byte below that.
inline void CopyBytes(uint8_t* dst, const uint8_t* src, size_t gap, size_t len,
                      size_t room) {
  if (gap >= 16 && len + 15 <= room) {
    for (size_t i = 0; i < len; i += 16) std::memcpy(dst + i, src + i, 16);
  } else if (gap >= len) {
    std::memcpy(dst, src, len);
  } else {
    size_t i = 0;
    for (; gap >= 8 && i + 8 <= len; i += 8) std::memcpy(dst + i, src + i, 8);
    for (; i < len; ++i) dst[i] = src[i];
  }
}

// CRC32C over the method+raw_len header bytes followed by the payload —
// a corrupted length field fails the checksum before any allocation is
// sized from it.
uint32_t FrameCrc(std::string_view header_tail, std::string_view payload) {
  return Crc32c(Crc32c(kCrc32cInit, header_tail), payload);
}

// Frame header for `payload`, which decodes to `raw_size` bytes, then payload.
void WriteFrame(uint8_t method, size_t raw_size, std::string_view payload,
                std::string* frame) {
  frame->clear();
  BufferWriter writer(frame);
  writer.AppendFixed32(kFrameMagic);
  writer.AppendByte(method);
  writer.AppendFixed64(raw_size);
  const std::string_view header_tail =
      std::string_view(*frame).substr(4, kCodecFrameHeaderSize - 8);
  writer.AppendFixed32(FrameCrc(header_tail, payload));
  writer.AppendRaw(payload);
}

}  // namespace

const char* MapOutputCodecName(MapOutputCodec codec) {
  switch (codec) {
    case MapOutputCodec::kNone:
      return "none";
    case MapOutputCodec::kLz4:
      return "lz4";
    case MapOutputCodec::kDeflate:
      return "deflate";
  }
  return "unknown";
}

Result<MapOutputCodec> MapOutputCodecByName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "none" || lower == "off") return MapOutputCodec::kNone;
  if (lower == "lz4") return MapOutputCodec::kLz4;
  if (lower == "deflate" || lower == "zlib") return MapOutputCodec::kDeflate;
  return Status::InvalidArgument("unknown map-output codec: '" + name +
                                 "' (expected none, lz4 or deflate)");
}

size_t Lz4CompressBound(size_t raw_len) {
  return raw_len + raw_len / 255 + 16;
}

void Lz4CompressBlock(std::string_view input, std::string* out) {
  out->clear();
  const size_t n = input.size();
  if (n == 0) return;
  out->resize(Lz4CompressBound(n));
  const uint8_t* base = reinterpret_cast<const uint8_t*>(input.data());
  uint8_t* const begin = reinterpret_cast<uint8_t*>(out->data());
  uint8_t* op = begin;
  size_t anchor = 0;
  // Token, literal length and the literals [anchor, end); returns the token
  // so the match that follows can fill in its nibble.
  const auto emit_literals = [&](size_t end) {
    uint8_t* token = op++;
    *token = 0;
    op = AppendLength(end - anchor, 4, token, op);
    std::memcpy(op, base + anchor, end - anchor);
    op += end - anchor;
    return token;
  };
  // Each slot holds the low 16 bits of the last block-relative position
  // whose quad hashed there: within the 16-bit offset window that names
  // the candidate uniquely. Cleared per block so the output depends on the input alone;
  // a stale or empty slot is harmless, every candidate is verified.
  thread_local std::vector<uint16_t> table(size_t{1} << kHashBits);
  const size_t match_start_limit =
      n > kMatchStartMargin ? n - kMatchStartMargin : 0;
  if (match_start_limit > 0) std::fill(table.begin(), table.end(), 0);
  // Single probe: read the quad's previous position, store this one.
  const auto probe = [&](size_t pos, size_t* cand) {
    const uint32_t quad = Load32(base + pos);
    uint16_t& slot = table[HashQuad(quad)];
    const size_t offset = static_cast<uint16_t>(pos - slot);
    slot = static_cast<uint16_t>(pos);
    *cand = pos - offset;
    return offset != 0 && offset <= pos && Load32(base + *cand) == quad;
  };
  size_t attempts = size_t{1} << kSkipTrigger;
  for (size_t pos = 1, cand = 0; pos < match_start_limit;) {
    if (!probe(pos, &cand)) {
      pos += attempts++ >> kSkipTrigger;
      continue;
    }
    attempts = size_t{1} << kSkipTrigger;
    // Extend the match backwards over literals it also covers.
    while (pos > anchor && cand > 0 && base[pos - 1] == base[cand - 1]) {
      --pos;
      --cand;
    }
    uint8_t* token = emit_literals(pos);
    // While the position right after a match matches again, chain
    // zero-literal sequences without re-entering the probe loop.
    for (;;) {
      const size_t len =
          kMinMatch + MatchLength(base + cand + kMinMatch,
                                  base + pos + kMinMatch,
                                  n - kLastLiterals - pos - kMinMatch);
      *op++ = static_cast<uint8_t>(pos - cand);
      *op++ = static_cast<uint8_t>((pos - cand) >> 8);
      op = AppendLength(len - kMinMatch, 0, token, op);
      pos += len;
      anchor = pos;
      if (pos >= match_start_limit) break;
      table[HashQuad(Load32(base + pos - 2))] = static_cast<uint16_t>(pos - 2);
      if (!probe(pos, &cand)) break;
      token = op++;
      *token = 0;
    }
    ++pos;
  }
  emit_literals(n);
  out->resize(static_cast<size_t>(op - begin));
}

Status Lz4DecompressBlock(std::string_view input, size_t raw_len,
                          std::string* out) {
  out->clear();
  const size_t n = input.size();
  // Each length-extension byte adds at most 255 output bytes, so no valid
  // block decodes to more than 255x its own size.
  if (raw_len > kMaxFrameRawSize || raw_len > n * 255) {
    return Status::InvalidArgument("lz4 block claims implausible raw size " +
                                   std::to_string(raw_len));
  }
  // Sized once; every bound below keeps op <= raw_len, so literals and
  // matches are copied straight into place.
  out->resize(raw_len);
  uint8_t* const dst = reinterpret_cast<uint8_t*>(out->data());
  const uint8_t* const src = reinterpret_cast<const uint8_t*>(input.data());
  size_t ip = 0;
  size_t op = 0;

  const auto read_run_length = [&](size_t nibble, size_t* len) -> Status {
    *len = nibble;
    for (uint8_t b = 0xff; nibble == 15 && b == 0xff;) {
      if (ip >= n) {
        return Status::InvalidArgument("lz4 block truncated in length field");
      }
      b = src[ip++];
      *len += b;
      if (*len > kMaxFrameRawSize) {
        return Status::InvalidArgument("lz4 run length overflows block");
      }
    }
    return Status::OK();
  };

  const auto decode = [&]() -> Status {
    while (ip < n) {
      const uint8_t token = src[ip++];
      size_t literal_len = 0;
      MRMB_RETURN_IF_ERROR(read_run_length(token >> 4, &literal_len));
      if (literal_len > n - ip) {
        return Status::InvalidArgument("lz4 literal run reads past block end");
      }
      if (literal_len > raw_len - op) {
        return Status::InvalidArgument("lz4 literal run overflows raw size");
      }
      CopyBytes(dst + op, src + ip, SIZE_MAX, literal_len,
                std::min(n - ip, raw_len - op));
      op += literal_len;
      ip += literal_len;
      if (ip == n) break;  // final sequence: literals only, no match part

      if (n - ip < 2) {
        return Status::InvalidArgument("lz4 block truncated in match offset");
      }
      const size_t offset = src[ip] | (static_cast<size_t>(src[ip + 1]) << 8);
      ip += 2;
      if (offset == 0 || offset > op) {
        return Status::InvalidArgument(StringPrintf(
            "lz4 match offset %zu out of range (window %zu)", offset, op));
      }
      size_t match_len = 0;
      MRMB_RETURN_IF_ERROR(read_run_length(token & 0xf, &match_len));
      match_len += kMinMatch;
      if (match_len > raw_len - op) {
        return Status::InvalidArgument("lz4 match overflows raw size");
      }
      CopyBytes(dst + op, dst + op - offset, offset, match_len, raw_len - op);
      op += match_len;
    }
    if (op != raw_len) {
      return Status::InvalidArgument(StringPrintf(
          "lz4 block decoded to %zu bytes, frame claims %zu", op, raw_len));
    }
    return Status::OK();
  };

  Status status = decode();
  if (!status.ok()) out->clear();
  return status;
}

Status BlockCompress(MapOutputCodec codec, std::string_view raw,
                     std::string* frame) {
  frame->clear();
  if (codec == MapOutputCodec::kNone) {
    return Status::InvalidArgument(
        "BlockCompress requires a real codec; 'none' bypasses framing");
  }
  std::string payload;
  if (codec == MapOutputCodec::kLz4) {
    Lz4CompressBlock(raw, &payload);
  } else {
    MRMB_RETURN_IF_ERROR(DeflateCompress(raw, &payload));
  }
  if (payload.size() >= raw.size()) {
    // Stored fallback: incompressible payloads cost the 17-byte header,
    // never an expansion of the payload itself.
    BlockStore(raw, frame);
  } else {
    WriteFrame(codec == MapOutputCodec::kLz4 ? kMethodLz4 : kMethodDeflate,
               raw.size(), payload, frame);
  }
  return Status::OK();
}

void BlockStore(std::string_view raw, std::string* frame) {
  WriteFrame(kMethodStored, raw.size(), raw, frame);
}

namespace {

uint32_t LoadBe32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return __builtin_bswap32(v);  // frames are big-endian, hosts little
}

void StoreBe32(uint32_t v, char* p) {
  v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof(v));
}

// CRC over the checksummed span of `frame` (method + raw_len + payload).
uint32_t FrameBodyCrc(const std::string& frame) {
  const std::string_view view(frame);
  return FrameCrc(view.substr(4, kCodecFrameHeaderSize - 8),
                  view.substr(kCodecFrameHeaderSize));
}

}  // namespace

Status RepairCodecFrameSingleBitFlip(std::string* frame) {
  if (frame->size() < kCodecFrameHeaderSize) {
    return Status::DataLoss(
        StringPrintf("codec frame too short to repair (%zu bytes)",
                     frame->size()));
  }
  // The magic is a known plaintext: a flip landing there is recognized by
  // Hamming distance 1 and healed by rewriting the constant. The rest of
  // the frame must then verify untouched — if it doesn't, the damage was
  // wider than one bit.
  const uint32_t magic = LoadBe32(frame->data());
  if (magic != kFrameMagic) {
    if (std::popcount(magic ^ kFrameMagic) != 1) {
      return Status::DataLoss(
          StringPrintf("codec frame magic %08x is more than one bit off",
                       magic));
    }
    StoreBe32(kFrameMagic, frame->data());
  }
  const uint32_t stored = LoadBe32(frame->data() + kCodecFrameHeaderSize - 4);
  const uint32_t computed = FrameBodyCrc(*frame);
  const uint32_t syndrome = stored ^ computed;
  if (syndrome == 0) return Status::OK();
  if (magic != kFrameMagic) {
    // The single budgeted flip was already spent on the magic.
    return Status::DataLoss("codec frame magic and body are both damaged");
  }
  // Try a flip in the checksummed span first (method/raw_len/payload, the
  // overwhelming majority of the frame); only a one-bit syndrome with no
  // matching body position can be a flip of the CRC field itself.
  size_t byte = 0;
  int bit = 0;
  const size_t body_len = frame->size() - 8;  // everything but magic + crc
  if (FindCrc32cSingleBitFlip(syndrome, body_len, &byte, &bit)) {
    // Body bytes skip the 4-byte CRC field at [13, 17).
    const size_t frame_index =
        byte < kCodecFrameHeaderSize - 8 ? 4 + byte : 8 + byte;
    (*frame)[frame_index] = static_cast<char>(
        static_cast<uint8_t>((*frame)[frame_index]) ^ (1u << bit));
    if (FrameBodyCrc(*frame) != stored) {
      return Status::Internal("codec frame repair did not converge");
    }
    return Status::OK();
  }
  if (std::popcount(syndrome) == 1) {
    StoreBe32(computed, frame->data() + kCodecFrameHeaderSize - 4);
    return Status::OK();
  }
  return Status::DataLoss(StringPrintf(
      "codec frame CRC syndrome %08x is not a single-bit flip", syndrome));
}

namespace {

struct FrameHeader {
  uint8_t method = 0;
  uint64_t raw_len = 0;
  uint32_t crc = 0;
  std::string_view payload;
};

Status ParseFrameHeader(std::string_view frame, FrameHeader* header) {
  if (frame.size() < kCodecFrameHeaderSize) {
    return Status::InvalidArgument(
        StringPrintf("codec frame truncated: %zu bytes, header needs %zu",
                     frame.size(), kCodecFrameHeaderSize));
  }
  BufferReader reader(frame);
  uint32_t magic = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(
        StringPrintf("bad codec frame magic %08x", magic));
  }
  MRMB_RETURN_IF_ERROR(reader.ReadByte(&header->method));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&header->raw_len));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&header->crc));
  if (header->method > kMethodDeflate) {
    return Status::InvalidArgument("unknown codec frame method " +
                                   std::to_string(header->method));
  }
  if (header->raw_len > kMaxFrameRawSize) {
    return Status::InvalidArgument("codec frame claims implausible raw size " +
                                   std::to_string(header->raw_len));
  }
  header->payload = frame.substr(kCodecFrameHeaderSize);
  const uint32_t actual = FrameCrc(frame.substr(4, kCodecFrameHeaderSize - 8),
                                   header->payload);
  if (actual != header->crc) {
    return Status::DataLoss(StringPrintf(
        "codec frame failed CRC32C verification (stored %08x, computed %08x "
        "over %zu payload bytes)",
        header->crc, actual, header->payload.size()));
  }
  return Status::OK();
}

}  // namespace

Status BlockDecompress(std::string_view frame, std::string* raw) {
  raw->clear();
  FrameHeader header;
  MRMB_RETURN_IF_ERROR(ParseFrameHeader(frame, &header));
  switch (header.method) {
    case kMethodStored:
      if (header.payload.size() != header.raw_len) {
        return Status::InvalidArgument(StringPrintf(
            "stored codec frame carries %zu bytes, header claims %llu",
            header.payload.size(),
            static_cast<unsigned long long>(header.raw_len)));
      }
      raw->assign(header.payload.data(), header.payload.size());
      return Status::OK();
    case kMethodLz4:
      return Lz4DecompressBlock(header.payload,
                                static_cast<size_t>(header.raw_len), raw);
    case kMethodDeflate: {
      MRMB_RETURN_IF_ERROR(DeflateDecompress(header.payload, raw));
      if (raw->size() != header.raw_len) {
        const size_t decoded = raw->size();
        raw->clear();
        return Status::InvalidArgument(StringPrintf(
            "deflate codec frame decoded to %zu bytes, header claims %llu",
            decoded, static_cast<unsigned long long>(header.raw_len)));
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown codec frame method");
}

Result<uint64_t> CodecFrameRawSize(std::string_view frame) {
  FrameHeader header;
  MRMB_RETURN_IF_ERROR(ParseFrameHeader(frame, &header));
  return header.raw_len;
}

double MeasureCodecRatio(MapOutputCodec codec, std::string_view sample) {
  if (codec == MapOutputCodec::kNone || sample.empty()) return 1.0;
  std::string frame;
  const Status status = BlockCompress(codec, sample, &frame);
  MRMB_CHECK_OK(status);
  return static_cast<double>(frame.size()) /
         static_cast<double>(sample.size());
}

}  // namespace mrmb
