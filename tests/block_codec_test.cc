#include "io/block_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/record_gen.h"

namespace mrmb {
namespace {

// Framed records the way the spill path lays them out: varint key length,
// varint value length, key wire bytes, value wire bytes.
std::string FramedRecords(DataType type, int64_t records, int unique_keys,
                          int key_size = 24, int value_size = 40) {
  RecordGenerator::Options options;
  options.type = type;
  options.key_size = key_size;
  options.value_size = value_size;
  options.num_unique_keys = unique_keys;
  RecordGenerator generator(options);
  std::string out;
  BufferWriter writer(&out);
  std::string key;
  std::string value;
  for (int64_t i = 0; i < records; ++i) {
    generator.SerializedKey(generator.KeyIdFor(i), &key);
    generator.SerializedValue(i, &value);
    writer.AppendVarint64(static_cast<int64_t>(key.size()));
    writer.AppendVarint64(static_cast<int64_t>(value.size()));
    writer.AppendRaw(key);
    writer.AppendRaw(value);
  }
  return out;
}

TEST(MapOutputCodecTest, NamesRoundTrip) {
  for (MapOutputCodec codec : {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                               MapOutputCodec::kDeflate}) {
    auto parsed = MapOutputCodecByName(MapOutputCodecName(codec));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, codec);
  }
  EXPECT_EQ(*MapOutputCodecByName("off"), MapOutputCodec::kNone);
  EXPECT_EQ(*MapOutputCodecByName("zlib"), MapOutputCodec::kDeflate);
  EXPECT_EQ(*MapOutputCodecByName("LZ4"), MapOutputCodec::kLz4);
  EXPECT_EQ(MapOutputCodecByName("snappy").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Lz4BlockTest, RoundTripsFramedRecordsForEveryDataType) {
  for (DataType type : {DataType::kBytesWritable, DataType::kText,
                        DataType::kIntWritable, DataType::kLongWritable}) {
    const std::string raw = FramedRecords(type, 500, 8);
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok())
        << DataTypeName(type);
    EXPECT_EQ(decoded, raw) << DataTypeName(type);
  }
}

TEST(Lz4BlockTest, RepeatedKeysCompress) {
  // Unique keys == a small reducer count (the paper's shape): sorted runs
  // repeat serialized keys, which an LZ77 codec must exploit. Keys dominate
  // the record here; values are incompressible random payload.
  const std::string raw =
      FramedRecords(DataType::kText, 2000, 4, /*key_size=*/80,
                    /*value_size=*/16);
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  EXPECT_LT(compressed.size(), raw.size() / 2);
  std::string decoded;
  ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
  EXPECT_EQ(decoded, raw);
}

TEST(Lz4BlockTest, RoundTripsEdgeSizes) {
  Rng rng(0x7214);
  for (size_t len : {size_t{0}, size_t{1}, size_t{4}, size_t{11}, size_t{12},
                     size_t{13}, size_t{17}, size_t{64}, size_t{4096}}) {
    std::string raw(len, '\0');
    rng.Fill(raw.data(), raw.size());
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok())
        << "len " << len;
    EXPECT_EQ(decoded, raw) << "len " << len;
  }
}

TEST(Lz4BlockTest, RoundTripsLongRuns) {
  // Long identical runs exercise the 255-extension length encoding on both
  // the literal and the match side.
  std::string raw(100000, 'x');
  raw += "tail";
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  EXPECT_LT(compressed.size(), raw.size() / 100);
  std::string decoded;
  ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
  EXPECT_EQ(decoded, raw);
}

TEST(Lz4BlockTest, RandomBlocksRoundTripAtRandomLengths) {
  Rng rng(0x9E11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = rng.Next64() % 3000;
    std::string raw(len, '\0');
    rng.Fill(raw.data(), raw.size());
    // Splice in some repetition so matches actually fire.
    if (len > 64) {
      const size_t span = len / 4;
      raw.replace(len / 2, span, raw.substr(0, span));
    }
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
    EXPECT_EQ(decoded, raw);
  }
}

// Decodes lowercase `hex` into bytes.
std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Periodic runs, byte runs and short-offset overlaps for the golden frames.
std::string RepetitiveBlock() {
  std::string raw;
  while (raw.size() < 260) raw += "mrmb-shuffle-";
  raw += std::string(150, 'z');
  raw += "abababababababababababab01234567012345670123456701234567";
  raw += "end-of-block";
  return raw;
}

TEST(Lz4BlockTest, DecodesGoldenFramesOfTheHashChainEncoder) {
  // Blocks written by the previous (hash-chain) encoder still sit in spill
  // extents and journals; the format is unchanged, so they must decode.
  struct Golden {
    const char* name;
    std::string raw;
    const char* hex;
  };
  const Golden goldens[] = {
      {"text", FramedRecords(DataType::kText, 8, 4),
       "43192918610100f62a6f6c676b7373786f6b6476657261676828746c79776b65"
       "74766278697268696f64637569616f656e78697063766a616768666979726977"
       "70714400f62b626f646d6e716b616d6e76677877686672286a6f6e656c616979"
       "6d797a7a6f646e7261686e707a6f7663756a687a666b63707a7171697676736b"
       "4400f62b6372646f6a716a627a7471787a746b6e7228736b686e62686e767562"
       "796179746b796463726f616d7a6168726a79676c626f76666d6a6179726e4400"
       "ff2b64667a6368756c796e7a7a79617965617928736a696d6174637566726b6d"
       "777172627a747073646c6270687a686f6574716f65666f797a6a6568100109ff"
       "196b78636c617679696b73616b656866726c676474697a6b6a797a6569636d72"
       "7768707179716f7463100109ff196d716e7a7a726f766a64716b6d6a766d6562"
       "6e786c61627a6c676e79626e78796f61627361706873100109ff196f67676c66"
       "6e737a6f65676b636f6f78656a73777769727877736465746d6b747374787a77"
       "797166100109f019706a777165626d61626871636179646170716b61636c6d6f"
       "69736a67666a6f796a7268726b737a6b"},
      {"bytes", FramedRecords(DataType::kBytesWritable, 8, 4),
       "731c2c00000018000100f92df8c120a6ae126576c085ffeee134060700000028"
       "2ddbcee6a686e3ffeb7f082bf156769f362ed8007638a9b356df02e5bf34d607"
       "d5a4e8797064df924a00f002015c51404192f48274c3973ae77ea305e14a00f9"
       "19a54227badb9ca4ce5ae86767f803c345d0f18f0f9b90ff9e96bf55e9a1c036"
       "abe992fa3c6349aec04a00f002022bd37671c609834de3fa17e9c958a9ad4a00"
       "f919468c3b0d4f07c31562834c4e9a61c0e8ed9e790e005a6700bd11d94c20db"
       "d1aa2f395aa50066ada94a00f0010339336ad72e73e84181e94c006652821800"
       "ff1a28fc3d8ac2b67b1cfe87adf42630922b018161f960510b01918981bd0e52"
       "6178deee1f42e8b509048928010fff198c7f6ac182cb4c220aae82c052075311"
       "73a23761d8b53e718033a0709e5a45e66f2944ce5e767b1c28010fff19a89275"
       "b54d5f2897571d92720c23cb8ed4010d6559689dcf3f88f7804ff717e8420001"
       "e2eaabbde228010fff19aad6f03f1fdd609b76baf0da025caacd5271604a4a56"
       "ad99b2605186af4058af6095174d7e9a106d28010ff0199109302a044fc24e9d"
       "071036eae8034ef9c6dab6b825c20e3ce271bc538b7632f3e16f117294190a"},
      {"repetitive", RepetitiveBlock(),
       "df6d726d622d73687566666c652d0d00e41f7a0100822f61620200038f303132"
       "3334353637080005c0656e642d6f662d626c6f636b"},
  };
  for (const Golden& golden : goldens) {
    std::string decoded;
    ASSERT_TRUE(
        Lz4DecompressBlock(FromHex(golden.hex), golden.raw.size(), &decoded)
            .ok())
        << golden.name;
    EXPECT_EQ(decoded, golden.raw) << golden.name;
  }
}

// Compresses `raw`, checks the bound, and decodes it back.
void ExpectRoundTrip(const std::string& raw, const std::string& label) {
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  EXPECT_LE(compressed.size(), Lz4CompressBound(raw.size())) << label;
  std::string decoded = "stale";
  ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok())
      << label;
  EXPECT_EQ(decoded, raw) << label;
}

TEST(Lz4BlockTest, RoundTripsEdgeShapesDeterministically) {
  Rng rng(0x1e4f);
  const auto random_bytes = [&](size_t len) {
    std::string raw(len, '\0');
    rng.Fill(raw.data(), raw.size());
    return raw;
  };
  // Every size 0-32: random, constant, and a 3-byte period.
  for (size_t len = 0; len <= 32; ++len) {
    ExpectRoundTrip(random_bytes(len), "random len " + std::to_string(len));
    ExpectRoundTrip(std::string(len, 'q'), "run len " + std::to_string(len));
    std::string period;
    while (period.size() < len) period += "xyz";
    ExpectRoundTrip(period.substr(0, len), "period len " + std::to_string(len));
  }
  // A match that could run into the 12-byte start margin or the 5-byte
  // literal tail, at every alignment around them.
  const std::string prefix = random_bytes(24);
  for (size_t tail = 0; tail <= 24; ++tail) {
    ExpectRoundTrip(prefix + prefix.substr(0, tail),
                    "margin tail " + std::to_string(tail));
    ExpectRoundTrip(prefix + prefix + random_bytes(tail),
                    "literal tail " + std::to_string(tail));
  }
  // Overlapping matches for every short offset, and the far window edge.
  for (size_t offset = 1; offset <= 16; ++offset) {
    const std::string seed = random_bytes(offset);
    std::string raw;
    while (raw.size() < 200) raw += seed;
    ExpectRoundTrip(raw + random_bytes(7), "offset " + std::to_string(offset));
  }
  for (size_t offset : {size_t{65535}, size_t{65536}}) {
    std::string raw = random_bytes(offset);
    raw += raw.substr(0, 100);
    ExpectRoundTrip(raw, "offset " + std::to_string(offset));
  }
  // Incompressible input, and input that is already an lz4 block.
  ExpectRoundTrip(random_bytes(70000), "random 70000");
  std::string compressed;
  Lz4CompressBlock(FramedRecords(DataType::kText, 2000, 8), &compressed);
  ExpectRoundTrip(compressed, "already lz4");
}

TEST(Lz4BlockTest, DecodeErrorsLeaveTheOutputEmpty) {
  const std::string raw = FramedRecords(DataType::kText, 200, 4);
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  std::vector<std::pair<std::string, size_t>> broken = {
      {compressed, raw.size() - 1},
      {compressed, raw.size() + 1},
      {compressed, compressed.size() * 256},
      {std::string("\x44" "abcd" "\x50\x00", 7), 32},  // offset before start
      {std::string("\xf0\xff", 2), 300},  // truncated length extension
  };
  for (size_t len = 1; len < compressed.size(); len += 7) {
    broken.emplace_back(compressed.substr(0, len), raw.size());
  }
  for (const auto& [block, raw_len] : broken) {
    std::string out = "stale";
    EXPECT_FALSE(Lz4DecompressBlock(block, raw_len, &out).ok())
        << block.size() << " -> " << raw_len;
    EXPECT_TRUE(out.empty()) << block.size() << " -> " << raw_len;
  }
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  for (const size_t flip : {size_t{0}, size_t{7}, frame.size() - 1}) {
    std::string corrupt = frame;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x10);
    std::string out = "stale";
    EXPECT_FALSE(BlockDecompress(corrupt, &out).ok()) << flip;
    EXPECT_TRUE(out.empty()) << flip;
  }
}

TEST(BlockCodecFrameTest, RoundTripsForBothCodecs) {
  const std::string raw = FramedRecords(DataType::kText, 300, 4);
  for (MapOutputCodec codec :
       {MapOutputCodec::kLz4, MapOutputCodec::kDeflate}) {
    std::string frame;
    ASSERT_TRUE(BlockCompress(codec, raw, &frame).ok());
    EXPECT_LT(frame.size(), raw.size());
    auto raw_size = CodecFrameRawSize(frame);
    ASSERT_TRUE(raw_size.ok());
    EXPECT_EQ(static_cast<size_t>(*raw_size), raw.size());
    std::string decoded;
    ASSERT_TRUE(BlockDecompress(frame, &decoded).ok());
    EXPECT_EQ(decoded, raw);
  }
}

TEST(BlockCodecFrameTest, IncompressibleInputFallsBackToStoredFrame) {
  Rng rng(0x5700);
  std::string raw(2048, '\0');
  rng.Fill(raw.data(), raw.size());
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  // Stored fallback: header + verbatim payload, never an expansion beyond
  // the fixed header.
  EXPECT_EQ(frame.size(), raw.size() + kCodecFrameHeaderSize);
  std::string decoded;
  ASSERT_TRUE(BlockDecompress(frame, &decoded).ok());
  EXPECT_EQ(decoded, raw);
}

TEST(BlockCodecFrameTest, EmptyInputRoundTrips) {
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, "", &frame).ok());
  std::string decoded = "stale";
  ASSERT_TRUE(BlockDecompress(frame, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(BlockCodecFrameTest, CompressingWithNoneIsInvalid) {
  std::string frame;
  EXPECT_EQ(BlockCompress(MapOutputCodec::kNone, "abc", &frame).code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockCodecFrameTest, CorruptPayloadFailsTheFrameChecksum) {
  const std::string raw = FramedRecords(DataType::kBytesWritable, 200, 4);
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  std::string corrupt = frame;
  corrupt[corrupt.size() / 2] ^= 0x20;
  std::string decoded;
  EXPECT_EQ(BlockDecompress(corrupt, &decoded).code(), StatusCode::kDataLoss);
}

TEST(BlockCodecFrameTest, CorruptRawLengthFailsBeforeAllocation) {
  const std::string raw = FramedRecords(DataType::kBytesWritable, 200, 4);
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  // Bytes 5..12 are the big-endian raw length. Blowing up the high byte
  // trips the plausibility bound before any allocation...
  std::string huge = frame;
  huge[5] = '\x7f';
  std::string decoded;
  EXPECT_EQ(BlockDecompress(huge, &decoded).code(),
            StatusCode::kInvalidArgument);
  // ...and a plausible-but-wrong length is caught by the header CRC, which
  // covers the length bytes.
  std::string tweaked = frame;
  tweaked[12] ^= 0x01;
  EXPECT_EQ(BlockDecompress(tweaked, &decoded).code(), StatusCode::kDataLoss);
}

TEST(MeasureCodecRatioTest, TracksCompressibility) {
  EXPECT_DOUBLE_EQ(MeasureCodecRatio(MapOutputCodec::kNone, "whatever"), 1.0);
  EXPECT_DOUBLE_EQ(MeasureCodecRatio(MapOutputCodec::kLz4, ""), 1.0);
  const std::string repetitive =
      FramedRecords(DataType::kText, 1000, 2, /*key_size=*/80,
                    /*value_size=*/16);
  EXPECT_LT(MeasureCodecRatio(MapOutputCodec::kLz4, repetitive), 0.6);
  EXPECT_LT(MeasureCodecRatio(MapOutputCodec::kDeflate, repetitive), 0.6);
  Rng rng(0xF00);
  std::string random(4096, '\0');
  rng.Fill(random.data(), random.size());
  // Random bytes: lz4 lands on the stored fallback, ratio ~1.
  EXPECT_GE(MeasureCodecRatio(MapOutputCodec::kLz4, random), 1.0);
}

// ---- Single-bit frame repair (the spill engine's scrub primitive) --------

std::string CompressibleFrame() {
  std::string frame;
  std::string raw;
  for (int i = 0; i < 500; ++i) {
    raw += "block payload chunk " + std::to_string(i % 13) + "; ";
  }
  EXPECT_TRUE(BlockCompress(MapOutputCodec::kDeflate, raw, &frame).ok());
  return frame;
}

TEST(RepairCodecFrameTest, HealsOneBitInEveryFrameRegion) {
  const std::string pristine = CompressibleFrame();
  // One flip per frame region: magic, method/length header, payload body,
  // and the CRC field itself (byte offsets per the header layout comment).
  const size_t probes[] = {0, 5, kCodecFrameHeaderSize - 2,
                           kCodecFrameHeaderSize + 3, pristine.size() - 1};
  for (const size_t byte : probes) {
    for (const int bit : {0, 7}) {
      std::string frame = pristine;
      frame[byte] = static_cast<char>(frame[byte] ^ (1u << bit));
      const Status repaired = RepairCodecFrameSingleBitFlip(&frame);
      ASSERT_TRUE(repaired.ok())
          << "byte=" << byte << " bit=" << bit << ": " << repaired.ToString();
      EXPECT_EQ(frame, pristine) << "byte=" << byte << " bit=" << bit;
      std::string raw;
      EXPECT_TRUE(BlockDecompress(frame, &raw).ok());
    }
  }
}

TEST(RepairCodecFrameTest, TwoBitDamageIsDataLoss) {
  std::string frame = CompressibleFrame();
  frame[kCodecFrameHeaderSize + 1] =
      static_cast<char>(frame[kCodecFrameHeaderSize + 1] ^ 0x04);
  frame[frame.size() - 2] = static_cast<char>(frame[frame.size() - 2] ^ 0x40);
  const Status repair = RepairCodecFrameSingleBitFlip(&frame);
  ASSERT_FALSE(repair.ok());
  EXPECT_EQ(repair.code(), StatusCode::kDataLoss);
}

TEST(RepairCodecFrameTest, UndamagedFrameIsUntouched) {
  std::string frame = CompressibleFrame();
  const std::string pristine = frame;
  EXPECT_TRUE(RepairCodecFrameSingleBitFlip(&frame).ok());
  EXPECT_EQ(frame, pristine);
}

TEST(BlockStoreTest, StoredFramesRoundTripAndRepair) {
  Rng rng(0xB10C);
  std::string raw(10000, '\0');
  rng.Fill(raw.data(), raw.size());
  std::string frame;
  BlockStore(raw, &frame);
  EXPECT_EQ(frame.size(), raw.size() + kCodecFrameHeaderSize);
  std::string round;
  ASSERT_TRUE(BlockDecompress(frame, &round).ok());
  EXPECT_EQ(round, raw);
  // Stored frames go through the same repair machinery.
  const std::string pristine = frame;
  frame[kCodecFrameHeaderSize + 777] =
      static_cast<char>(frame[kCodecFrameHeaderSize + 777] ^ 0x20);
  ASSERT_TRUE(RepairCodecFrameSingleBitFlip(&frame).ok());
  EXPECT_EQ(frame, pristine);
}

}  // namespace
}  // namespace mrmb
