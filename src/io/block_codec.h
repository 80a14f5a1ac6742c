// Block-compression codecs for the functional shuffle data plane.
//
// The paper's Sect. 3 observation — "reducing the sheer number of bytes
// taken up by the intermediate data can provide a substantial performance
// gain" — is a CPU-vs-bytes trade, and measuring it honestly needs a codec
// fast enough that the CPU side doesn't drown the win. This module provides:
//
//   - An in-repo LZ4 block codec in reference "fast" mode: a single-probe
//     hash table of 4-byte quads (reused across blocks), a probe step that
//     widens through long literal runs, backward match extension, and the
//     classic 4+4 bit token with 255-run length extensions and 16-bit
//     match offsets. The decoder sizes its output once and copies literals
//     and matches with memcpy (chunked for self-overlapping matches). No
//     entropy stage, so both directions run at memory-ish speed — the
//     Hadoop "speed codec" role (lz4/snappy).
//   - A framed wrapper that prefixes any payload with a checksummed header
//     (magic, method, raw length, CRC32C over method+length+payload) and
//     falls back to a stored block whenever compression does not shrink the
//     payload. The same frame carries DEFLATE output, giving the existing
//     zlib path (the Hadoop "ratio codec" role) the same integrity and
//     fallback behavior.
//
// Decoding is fully bounds-checked: truncated frames, corrupt tokens or
// length fields, and out-of-range match offsets all return Status — never
// an out-of-bounds read.

#ifndef MRMB_IO_BLOCK_CODEC_H_
#define MRMB_IO_BLOCK_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mrmb {

// Which codec the map-output spill path runs over each sealed partition
// (JobConf::map_output_codec; Hadoop's mapred.map.output.compression.codec).
enum class MapOutputCodec {
  kNone,
  kLz4,
  kDeflate,
};

const char* MapOutputCodecName(MapOutputCodec codec);
Result<MapOutputCodec> MapOutputCodecByName(const std::string& name);

// --- Raw LZ4-style block (no frame) ---------------------------------------

// Compresses `input` into *out (overwritten). Always succeeds; the output
// of incompressible input can be slightly larger than the input (bound
// below), which the framed API absorbs via its stored-block fallback.
void Lz4CompressBlock(std::string_view input, std::string* out);

// Worst-case compressed size for a block of `raw_len` bytes.
size_t Lz4CompressBound(size_t raw_len);

// Decompresses a block produced by Lz4CompressBlock. `raw_len` is the
// expected decompressed size (carried by the frame header); decoding fails
// with InvalidArgument if the stream is malformed, reads past its bounds,
// references data before the start of the output, or does not decode to
// exactly `raw_len` bytes. *out is empty after any error.
Status Lz4DecompressBlock(std::string_view input, size_t raw_len,
                          std::string* out);

// --- Framed API (what the spill/fetch path speaks) ------------------------

// Frame layout, all integers big-endian (BufferWriter convention):
//   fixed32  magic   0x4d42424b ("MBBK")
//   byte     method  0 = stored, 1 = lz4, 2 = deflate
//   fixed64  raw_len decompressed payload size
//   fixed32  crc     CRC32C over the method+raw_len header bytes + payload
//   payload  raw_len (stored) or compressed bytes
inline constexpr size_t kCodecFrameHeaderSize = 17;

// Compresses `raw` with `codec` into a self-describing frame (*frame
// overwritten). Falls back to a stored block when the codec output is not
// smaller than the input. `codec` must not be kNone.
Status BlockCompress(MapOutputCodec codec, std::string_view raw,
                     std::string* frame);

// Builds a stored (method 0) frame around `raw` without attempting
// compression (*frame overwritten). Gives callers that only want the
// checksummed framing — e.g. the spill store with its block codec set to
// kNone — the same self-describing layout BlockCompress emits.
void BlockStore(std::string_view raw, std::string* frame);

// Attempts to heal a frame that fails verification, assuming at most one
// flipped bit — the dominant single-event model for at-rest corruption.
// Covers flips anywhere in the frame: a one-bit-off magic is rewritten from
// the known constant, a CRC-covered flip (method/raw_len/payload) is located
// via FindCrc32cSingleBitFlip, and a flip inside the CRC field itself is
// recomputed. Returns OK when *frame verifies afterwards (the frame is
// modified in place; a frame that already verifies is returned unchanged)
// and DataLoss when no single-bit flip explains the damage — *frame is then
// left in an unspecified (still-broken) state. Note OK means the *frame*
// checksum closes over its contents again; callers holding a redundant
// outer checksum (the spill store's partition CRCs) must still confirm the
// repair against it, since a flipped CRC field is indistinguishable from a
// payload flip with a colliding syndrome.
Status RepairCodecFrameSingleBitFlip(std::string* frame);

// Decodes a frame produced by BlockCompress (*raw overwritten). The method
// byte makes frames self-describing, so the decoder does not need to know
// which codec produced them. Returns InvalidArgument on structural
// corruption and DataLoss on a frame-checksum mismatch; *raw is empty after
// any error.
Status BlockDecompress(std::string_view frame, std::string* raw);

// Decompressed size a frame claims to decode to, without decoding it.
Result<uint64_t> CodecFrameRawSize(std::string_view frame);

// Compressed-size / raw-size ratio of `sample` under `codec` (1.0 for
// kNone or empty input). The framed counterpart of MeasureCompressionRatio;
// used by the simulator to derive its wire factor for the selected codec.
double MeasureCodecRatio(MapOutputCodec codec, std::string_view sample);

}  // namespace mrmb

#endif  // MRMB_IO_BLOCK_CODEC_H_
