// Robustness: the wire-format decoders must never crash or read out of
// bounds on arbitrary input — they return Status errors instead. This
// includes the framed SegmentReader: a corrupted shuffle segment must
// surface as a DataLoss status() so the task-attempt engine can re-execute
// the producing map, never as a crash.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/block_codec.h"
#include "io/byte_buffer.h"
#include "io/codec.h"
#include "io/merge.h"
#include "io/writable.h"

namespace mrmb {
namespace {

class FuzzDecodeTest : public ::testing::TestWithParam<int> {};

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string out(rng->Uniform(max_len + 1), '\0');
  rng->Fill(out.data(), out.size());
  return out;
}

TEST_P(FuzzDecodeTest, WritablesSurviveGarbage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x1234567);
  for (int i = 0; i < 200; ++i) {
    const std::string garbage = RandomBytes(&rng, 64);
    {
      BufferReader reader(garbage);
      BytesWritable value;
      (void)value.Deserialize(&reader);  // must not crash
    }
    {
      BufferReader reader(garbage);
      Text value;
      (void)value.Deserialize(&reader);
    }
    {
      BufferReader reader(garbage);
      IntWritable value;
      (void)value.Deserialize(&reader);
    }
    {
      BufferReader reader(garbage);
      LongWritable value;
      (void)value.Deserialize(&reader);
    }
  }
}

TEST_P(FuzzDecodeTest, VarintDecoderSurvivesGarbage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x2468ace);
  for (int i = 0; i < 500; ++i) {
    const std::string garbage = RandomBytes(&rng, 12);
    int64_t value = 0;
    size_t length = 0;
    const Status status = DecodeVarint64(garbage, &value, &length);
    if (status.ok()) {
      // A successful decode must report a length within the input, and the
      // value must survive an encode/decode round trip (the Hadoop vint
      // format is not canonical, so the *bytes* need not match).
      ASSERT_LE(length, garbage.size());
      BufferWriter writer;
      writer.AppendVarint64(value);
      int64_t again = 0;
      size_t again_length = 0;
      ASSERT_TRUE(DecodeVarint64(writer.data(), &again, &again_length).ok());
      EXPECT_EQ(again, value);
      EXPECT_EQ(again_length, writer.size());
    }
  }
}

TEST_P(FuzzDecodeTest, InflateSurvivesGarbage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xbeef1);
  for (int i = 0; i < 50; ++i) {
    const std::string garbage = RandomBytes(&rng, 256);
    std::string out;
    (void)DeflateDecompress(garbage, &out);  // error or success, no crash
  }
}

TEST_P(FuzzDecodeTest, SegmentReaderSurvivesGarbage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x5ca1ab1e);
  for (int i = 0; i < 200; ++i) {
    const std::string garbage = RandomBytes(&rng, 128);
    SegmentReader reader(garbage);
    int records = 0;
    while (reader.Valid() && records < 10000) {
      (void)reader.key();
      (void)reader.value();
      reader.Next();
      ++records;
    }
    // Whatever the bytes were, the reader either consumed well-formed
    // frames or stopped with DataLoss — it must never crash or spin.
    ASSERT_LT(records, 10000);
    const Status status = reader.status();
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kDataLoss)
        << status.ToString();
  }
}

// Named regressions for SegmentReader's single-byte header fast path:
// every malformed frame must end the stream with DataLoss after exactly
// the well-formed records before it, never crash or read past the slice.
int64_t ReadUntilEnd(SegmentReader* reader) {
  int64_t records = 0;
  while (reader->Valid()) {
    (void)reader->key();
    (void)reader->value();
    reader->Next();
    ++records;
  }
  return records;
}

void ExpectDataLossAfter(std::string_view bytes, int64_t good_records) {
  SCOPED_TRACE(::testing::Message() << "frame bytes=" << bytes.size());
  SegmentReader reader(bytes);
  EXPECT_EQ(ReadUntilEnd(&reader), good_records);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
}

// "k" -> "v" as one well-formed frame.
const std::string kGoodFrame("\x01\x01kv", 4);

TEST(SegmentReaderHeaderTest, HighBitFirstHeaderByteIsDataLoss) {
  // 0x90..0xFF are single-byte negative lengths (-112..-1).
  ExpectDataLossAfter(std::string("\xff\x01kv", 4), 0);
  ExpectDataLossAfter(std::string("\x90\x01kv", 4), 0);
  ExpectDataLossAfter(kGoodFrame + std::string("\xc0\x00", 2), 1);
  // 0x80..0x8F are multi-byte markers: a negative length (0x87 = one
  // magnitude byte, negative), a positive length running past the slice
  // (0x8F 0xC8 = 200), and an 8-byte magnitude cut short (0x80).
  ExpectDataLossAfter(std::string("\x87\x05\x01kv", 5), 0);
  ExpectDataLossAfter(std::string("\x8f\xc8\x01kv", 5), 0);
  ExpectDataLossAfter(std::string("\x80\x01\x02", 3), 0);
  // The value length may be the multi-byte or negative one, too.
  ExpectDataLossAfter(std::string("\x01\xffkv", 4), 0);
  ExpectDataLossAfter(std::string("\x01\x8f", 2), 0);
  // 0x80 is the 8-byte negative marker, not a length of 128.
  ExpectDataLossAfter(std::string("\x01\x80k", 3) + std::string(128, 'v'), 0);
}

TEST(SegmentReaderHeaderTest, LoneTrailingHeaderByteIsDataLoss) {
  ExpectDataLossAfter(std::string("\x00", 1), 0);
  ExpectDataLossAfter(std::string("\x7f", 1), 0);
  ExpectDataLossAfter(kGoodFrame + std::string("\x00", 1), 1);
  ExpectDataLossAfter(kGoodFrame + kGoodFrame + std::string("\x03", 1), 2);
}

TEST(SegmentReaderHeaderTest, TwoByteHeaderPastTheSliceIsDataLoss) {
  // Key runs past the slice.
  ExpectDataLossAfter(std::string("\x05\x00" "abc", 5), 0);
  ExpectDataLossAfter(kGoodFrame + std::string("\x7f\x00k", 3), 1);
  // Key fits, value runs past the slice.
  ExpectDataLossAfter(std::string("\x01\x05kab", 5), 0);
  ExpectDataLossAfter(kGoodFrame + std::string("\x00\x7f", 2), 1);
  // Header only.
  ExpectDataLossAfter(std::string("\x01\x01", 2), 0);
}

TEST(SegmentReaderHeaderTest, FastPathStillValidatesKeyWireFormat) {
  // A 4-byte key framed with a valid header is not a LongWritable.
  const std::string frame("\x04\x00" "abcd", 6);
  SegmentReader reader(frame, DataType::kLongWritable);
  EXPECT_EQ(ReadUntilEnd(&reader), 0);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  // The same frame with an 8-byte key passes.
  SegmentReader good(std::string_view("\x08\x00" "abcdefgh", 10),
                     DataType::kLongWritable);
  EXPECT_EQ(ReadUntilEnd(&good), 1);
  EXPECT_TRUE(good.status().ok()) << good.status().ToString();
}

TEST_P(FuzzDecodeTest, Lz4DecoderSurvivesGarbage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x124c0de);
  for (int i = 0; i < 300; ++i) {
    const std::string garbage = RandomBytes(&rng, 256);
    const size_t claimed_raw = rng.Uniform(512);
    std::string out;
    // Arbitrary bytes with an arbitrary claimed raw size: the decoder must
    // return a Status (or a short/valid decode), never read out of bounds.
    (void)Lz4DecompressBlock(garbage, claimed_raw, &out);
    ASSERT_LE(out.size(), claimed_raw);
  }
}

TEST_P(FuzzDecodeTest, Lz4DecoderRejectsOutOfWindowOffsets) {
  // Hand-built block: 4 literals then a match whose offset points before
  // the start of the output — the classic OOB-read attack on LZ decoders.
  std::string block;
  block.push_back(0x44);        // token: 4 literals, match len 4+4
  block.append("abcd");
  block.push_back(0x50);        // offset 0x0050 = 80 > bytes decoded so far
  block.push_back(0x00);
  std::string out;
  const Status status = Lz4DecompressBlock(block, 32, &out);
  EXPECT_FALSE(status.ok());

  // Offset zero (self-referential before any byte exists) must also fail.
  block[5] = 0x00;
  EXPECT_FALSE(Lz4DecompressBlock(block, 32, &out).ok());
}

TEST_P(FuzzDecodeTest, BlockDecompressSurvivesGarbageFrames) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xf4a3e);
  for (int i = 0; i < 300; ++i) {
    const std::string garbage = RandomBytes(&rng, 128);
    std::string out;
    const Status status = BlockDecompress(garbage, &out);
    // Random bytes essentially never carry the magic + a valid CRC; they
    // must be rejected as malformed or corrupt, never crash.
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kDataLoss)
        << status.ToString();
  }
}

TEST_P(FuzzDecodeTest, TruncatedCodecFramesFailCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x1eaf);
  std::string raw = RandomBytes(&rng, 600);
  raw += raw;  // guarantee some compressibility
  for (MapOutputCodec codec :
       {MapOutputCodec::kLz4, MapOutputCodec::kDeflate}) {
    std::string frame;
    ASSERT_TRUE(BlockCompress(codec, raw, &frame).ok());
    std::string out;
    // Every truncation fails with a Status; the full frame round-trips.
    for (size_t len = 0; len < frame.size();
         len += 1 + rng.Uniform(7)) {
      EXPECT_FALSE(
          BlockDecompress(std::string_view(frame).substr(0, len), &out).ok())
          << "codec " << MapOutputCodecName(codec) << " len " << len;
    }
    ASSERT_TRUE(BlockDecompress(frame, &out).ok());
    EXPECT_EQ(out, raw);
  }
}

TEST_P(FuzzDecodeTest, BitFlippedCodecFramesNeverDecodeWrong) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xb17f11b);
  const std::string raw = RandomBytes(&rng, 400) + std::string(200, 'z');
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  for (int i = 0; i < 100; ++i) {
    std::string corrupt = frame;
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    std::string out;
    const Status status = BlockDecompress(corrupt, &out);
    // The frame CRC covers header fields and payload: any single-bit flip
    // either fails verification or (if it hit the stored CRC itself)
    // still cannot produce a wrong successful decode.
    if (status.ok()) {
      EXPECT_EQ(out, raw);
    }
  }
}

TEST_P(FuzzDecodeTest, TruncatedValidDataFailsCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x777);
  // Serialize a real value, then decode every truncation of it.
  const std::string payload = RandomBytes(&rng, 40);
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  const std::string wire = writer.data();
  for (size_t len = 0; len < wire.size(); ++len) {
    BufferReader reader(std::string_view(wire).substr(0, len));
    BytesWritable value;
    EXPECT_FALSE(value.Deserialize(&reader).ok()) << "len=" << len;
  }
  // The full wire decodes.
  BufferReader reader(wire);
  BytesWritable value;
  EXPECT_TRUE(value.Deserialize(&reader).ok());
  EXPECT_EQ(value.bytes(), payload);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace mrmb
