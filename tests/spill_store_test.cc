// Durable spill storage engine tests: extent round-trips across codecs,
// ARC cache behaviour, write-time fault handling (ENOSPC, torn writes),
// read-time fault handling (bit flips, short reads, EIO), the
// repair-or-kDataLoss taxonomy, and crash recovery of unsealed extents.

#include "io/spill_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "io/block_codec.h"
#include "io/checksum.h"
#include "mapred/map_output.h"

namespace mrmb {
namespace {

// A sealed segment of pseudo-random partition payloads (the store treats
// partition bytes as opaque; record framing is irrelevant here). Partition
// `empty_partition` (if >= 0) is left zero-length to cover the degenerate
// range.
SpillSegment MakeSegment(int num_partitions, int64_t bytes_per_partition,
                         uint64_t seed, int empty_partition = -1,
                         bool compressible = false) {
  SpillSegment segment;
  segment.partitions.resize(static_cast<size_t>(num_partitions));
  Rng rng(seed);
  for (int p = 0; p < num_partitions; ++p) {
    SpillSegment::PartitionRange& range =
        segment.partitions[static_cast<size_t>(p)];
    range.offset = static_cast<int64_t>(segment.data.size());
    if (p != empty_partition) {
      for (int64_t i = 0; i < bytes_per_partition; ++i) {
        segment.data.push_back(
            compressible ? static_cast<char>('a' + (i % 7))
                         : static_cast<char>(rng.Uniform(256)));
      }
      range.records = bytes_per_partition / 16;
    }
    range.length = static_cast<int64_t>(segment.data.size()) - range.offset;
  }
  SealSegment(&segment);
  return segment;
}

// Hooks whose behaviour the test chooses per call via std::function; unset
// members fall through to the no-op base.
class TestHooks final : public SpillIoHooks {
 public:
  std::function<Status(int64_t, size_t)> before_write;
  std::function<void(int, int, int64_t, std::string*)> mutate;
  std::function<int64_t(int, int, int64_t)> torn;
  std::function<bool(int, int, int64_t)> short_read;
  std::function<bool(int, int, int64_t, int)> read_error;

  Status BeforeExtentWrite(int64_t store_bytes, size_t len) override {
    return before_write ? before_write(store_bytes, len) : Status::OK();
  }
  void MutateBlockFrame(int task, int attempt, int64_t block,
                        std::string* frame) override {
    if (mutate) mutate(task, attempt, block, frame);
  }
  int64_t TornWriteBytes(int task, int attempt,
                         int64_t final_frame_bytes) override {
    return torn ? torn(task, attempt, final_frame_bytes) : 0;
  }
  bool InjectShortRead(int task, int attempt, int64_t block) override {
    return short_read ? short_read(task, attempt, block) : false;
  }
  bool InjectReadError(int task, int attempt, int64_t block,
                       int retry) override {
    return read_error ? read_error(task, attempt, block, retry) : false;
  }
};

std::unique_ptr<SpillStore> OpenStore(const SpillStoreOptions& options,
                                      SpillIoHooks* hooks = nullptr) {
  auto store = SpillStore::Open(options, hooks);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// ---- Extent round-trips --------------------------------------------------

TEST(SpillStoreTest, RoundTripAcrossCodecs) {
  for (MapOutputCodec codec : {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                               MapOutputCodec::kDeflate}) {
    SpillStoreOptions options;
    options.block_codec = codec;
    auto store = OpenStore(options);
    const SpillSegment segment =
        MakeSegment(4, 10000, 0xAB, /*empty_partition=*/-1,
                    /*compressible=*/codec != MapOutputCodec::kNone);
    auto put = store->Put(segment, /*task=*/1, /*attempt=*/0);
    ASSERT_TRUE(put.ok()) << put.status().ToString();
    const StoredSpill& spill = **put;
    EXPECT_EQ(spill.logical_bytes(), segment.total_bytes());
    EXPECT_GT(spill.file_bytes(), 0);
    for (int p = 0; p < 4; ++p) {
      auto bytes = spill.ReadPartition(p, /*verify_partition_crc=*/true);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_EQ(*bytes, segment.PartitionData(p)) << "codec "
                                                  << MapOutputCodecName(codec);
    }
    auto round = spill.ReadSegment(/*verify=*/true);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(round->data, segment.data);
    ASSERT_EQ(round->partitions.size(), segment.partitions.size());
    for (size_t p = 0; p < segment.partitions.size(); ++p) {
      EXPECT_EQ(round->partitions[p].records, segment.partitions[p].records);
      EXPECT_EQ(round->partitions[p].crc, segment.partitions[p].crc);
    }
  }
}

TEST(SpillStoreTest, CodecFramedRangesAreStoredNotRecompressed) {
  // CompressSegment output is already lz4-framed. Its long match-length
  // runs would shrink under a second lz4 pass, so only a writer that skips
  // that pass yields stored frames here.
  SpillStoreOptions options;
  options.block_codec = MapOutputCodec::kLz4;
  options.block_bytes = 256;
  auto store = OpenStore(options);
  auto framed = CompressSegment(
      MapOutputCodec::kLz4,
      MakeSegment(3, 200000, 0xEF, /*empty_partition=*/-1,
                  /*compressible=*/true));
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  auto put = store->Put(*framed, /*task=*/2, /*attempt=*/0);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  const StoredSpill& spill = **put;
  ASSERT_GT(spill.blocks().size(), 3u);
  for (const StoredSpill::BlockRef& ref : spill.blocks()) {
    EXPECT_EQ(ref.frame_len,
              ref.raw_len + static_cast<int64_t>(kCodecFrameHeaderSize));
  }
  const int64_t per_block = 4 + static_cast<int64_t>(kCodecFrameHeaderSize);
  EXPECT_LE(store->stats().bytes_written,
            framed->total_bytes() +
                per_block * static_cast<int64_t>(spill.blocks().size()));
  for (int p = 0; p < 3; ++p) {
    auto bytes = spill.ReadPartition(p, /*verify_partition_crc=*/true);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, framed->PartitionData(p));
  }
  auto round = spill.ReadSegment(/*verify=*/true);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->data, framed->data);
}

TEST(SpillStoreTest, SmallBlocksAndEmptyPartitionRoundTrip) {
  SpillStoreOptions options;
  options.block_bytes = 4096;  // many blocks per partition
  auto store = OpenStore(options);
  const SpillSegment segment = MakeSegment(3, 20000, 0xCD,
                                           /*empty_partition=*/1);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_GT((*put)->blocks().size(), 5u);
  auto empty = (*put)->ReadPartition(1, true);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto round = (*put)->ReadSegment(true);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->data, segment.data);
}

TEST(SpillStoreTest, MmapReadsMatchPread) {
  for (bool use_mmap : {false, true}) {
    SpillStoreOptions options;
    options.use_mmap = use_mmap;
    auto store = OpenStore(options);
    const SpillSegment segment = MakeSegment(2, 5000, 0xEE);
    auto put = store->Put(segment, 0, 0);
    ASSERT_TRUE(put.ok()) << put.status().ToString();
    for (int p = 0; p < 2; ++p) {
      auto bytes = (*put)->ReadPartition(p, true);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      EXPECT_EQ(*bytes, segment.PartitionData(p));
    }
  }
}

TEST(SpillStoreTest, DroppingHandleUnlinksExtentAndStoreCleansDirectory) {
  std::string extent_path;
  std::string store_dir;
  {
    auto store = OpenStore(SpillStoreOptions());
    store_dir = store->dir();
    auto put = store->Put(MakeSegment(2, 1000, 0x11), 0, 0);
    ASSERT_TRUE(put.ok());
    extent_path = (*put)->path();
    EXPECT_TRUE(std::filesystem::exists(extent_path));
    put->reset();
    EXPECT_FALSE(std::filesystem::exists(extent_path));
  }
  EXPECT_FALSE(std::filesystem::exists(store_dir));
}

TEST(SpillStoreTest, PutRequiresSealedSegment) {
  auto store = OpenStore(SpillStoreOptions());
  SpillSegment unsealed = MakeSegment(1, 100, 0x1);
  unsealed.sealed = false;
  auto put = store->Put(unsealed, 0, 0);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kFailedPrecondition);
}

// ---- ARC block cache -----------------------------------------------------

std::shared_ptr<const std::string> Payload(size_t bytes) {
  return std::make_shared<const std::string>(bytes, 'x');
}

TEST(ArcBlockCacheTest, HitMissAndEvictionSequencesAreDeterministic) {
  ArcBlockCache cache(/*capacity_bytes=*/300);
  EXPECT_EQ(cache.Get(0, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  cache.Put(0, 0, Payload(100));
  cache.Put(0, 1, Payload(100));
  cache.Put(0, 2, Payload(100));
  EXPECT_EQ(cache.resident_bytes(), 300);
  EXPECT_EQ(cache.evictions(), 0);
  // All three resident; touching 0 promotes it to T2.
  ASSERT_NE(cache.Get(0, 0), nullptr);
  EXPECT_EQ(cache.hits(), 1);
  // A fourth block must evict exactly one resident block.
  cache.Put(0, 3, Payload(100));
  EXPECT_EQ(cache.resident_bytes(), 300);
  EXPECT_EQ(cache.evictions(), 1);
  // The T2 block (0) survives; the LRU single-use block (1) was demoted.
  EXPECT_NE(cache.Get(0, 0), nullptr);
  EXPECT_EQ(cache.Get(0, 1), nullptr);
}

TEST(ArcBlockCacheTest, GhostHitGrowsRecencyTarget) {
  ArcBlockCache cache(200);
  cache.Put(0, 0, Payload(100));
  cache.Put(0, 1, Payload(100));
  cache.Put(0, 2, Payload(100));  // evicts block 0 into the B1 ghost list
  EXPECT_EQ(cache.target_t1_bytes(), 0);
  // Re-inserting a B1 ghost is the "recency was right" signal: the target
  // for T1 must grow.
  cache.Put(0, 0, Payload(100));
  EXPECT_GT(cache.target_t1_bytes(), 0);
}

TEST(ArcBlockCacheTest, OversizedPayloadIsNotAdmitted) {
  ArcBlockCache cache(100);
  cache.Put(0, 0, Payload(500));
  EXPECT_EQ(cache.resident_bytes(), 0);
  EXPECT_EQ(cache.Get(0, 0), nullptr);
}

TEST(ArcBlockCacheTest, EraseExtentDropsOnlyThatExtent) {
  ArcBlockCache cache(1000);
  cache.Put(1, 0, Payload(100));
  cache.Put(2, 0, Payload(100));
  cache.EraseExtent(1);
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  EXPECT_NE(cache.Get(2, 0), nullptr);
}

TEST(SpillStoreTest, CacheServesRepeatReadsWithoutDiskDecode) {
  SpillStoreOptions options;
  options.cache_bytes = 32ll << 20;
  auto store = OpenStore(options);
  const SpillSegment segment = MakeSegment(2, 4000, 0x77);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok());
  ASSERT_TRUE((*put)->ReadPartition(0, true).ok());  // cold: misses
  const SpillStoreStats cold = store->stats();
  EXPECT_GT(cold.cache_misses, 0);
  EXPECT_EQ(cold.cache_hits, 0);
  ASSERT_TRUE((*put)->ReadPartition(0, true).ok());  // warm: hits
  const SpillStoreStats warm = store->stats();
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_GT(warm.cache_hits, 0);
}

// ---- Write-side faults ---------------------------------------------------

TEST(SpillStoreTest, EnospcFailsPutAndLeavesNoFile) {
  TestHooks hooks;
  hooks.before_write = [](int64_t store_bytes, size_t len) {
    return store_bytes + static_cast<int64_t>(len) > 1024
               ? Status::ResourceExhausted("disk full")
               : Status::OK();
  };
  auto store = OpenStore(SpillStoreOptions(), &hooks);
  auto put = store->Put(MakeSegment(2, 8000, 0x22), 3, 1);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store->stats().write_failures, 1);
  EXPECT_EQ(store->stats().extents_written, 0);
  // The partial temp file must be gone.
  EXPECT_TRUE(std::filesystem::is_empty(store->dir()));
}

TEST(SpillStoreTest, TornWriteSurfacesAsDataLossOnTheFinalBlock) {
  TestHooks hooks;
  hooks.torn = [](int, int, int64_t final_frame_bytes) {
    return final_frame_bytes / 2;  // half the last frame never hit disk
  };
  SpillStoreOptions options;
  options.cache_bytes = 0;
  auto store = OpenStore(options, &hooks);
  const SpillSegment segment = MakeSegment(2, 6000, 0x33);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  // Partition 0 is intact; the torn tail lives in partition 1's last block.
  EXPECT_TRUE((*put)->ReadPartition(0, true).ok());
  auto torn = (*put)->ReadPartition(1, true);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(store->stats().blocks_lost, 1);
}

// ---- Read-side faults: the repair-or-kDataLoss taxonomy ------------------

// Flips `bits` distinct payload bits of the extent's block `block`.
TestHooks FlipBitsInBlock(int64_t target_block, int bits) {
  TestHooks hooks;
  hooks.mutate = [target_block, bits](int, int, int64_t block,
                                      std::string* frame) {
    if (block != target_block) return;
    for (int b = 0; b < bits; ++b) {
      const size_t byte = kCodecFrameHeaderSize + static_cast<size_t>(3 * b);
      (*frame)[byte] = static_cast<char>((*frame)[byte] ^ (1u << (b % 8)));
    }
  };
  return hooks;
}

TEST(SpillStoreTest, SingleBitFlipIsRepairedInPlaceAndPersists) {
  TestHooks hooks = FlipBitsInBlock(0, 1);
  SpillStoreOptions options;
  options.cache_bytes = 0;  // every read decodes from disk
  auto store = OpenStore(options, &hooks);
  const SpillSegment segment = MakeSegment(2, 6000, 0x44);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  auto bytes = (*put)->ReadPartition(0, true);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, segment.PartitionData(0));
  EXPECT_EQ(store->stats().blocks_repaired, 1);
  EXPECT_EQ(store->stats().blocks_lost, 0);
  // The healed frame was written back: with no cache, a second read decodes
  // from disk again and must need no further repair.
  ASSERT_TRUE((*put)->ReadPartition(0, true).ok());
  EXPECT_EQ(store->stats().blocks_repaired, 1);
}

TEST(SpillStoreTest, MultiBitFlipIsDataLoss) {
  TestHooks hooks = FlipBitsInBlock(0, 4);
  SpillStoreOptions options;
  options.cache_bytes = 0;
  auto store = OpenStore(options, &hooks);
  const SpillSegment segment = MakeSegment(2, 6000, 0x55);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  auto bytes = (*put)->ReadPartition(0, true);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store->stats().blocks_repaired, 0);
  EXPECT_GE(store->stats().blocks_lost, 1);
  // The undamaged partition still reads fine.
  EXPECT_TRUE((*put)->ReadPartition(1, true).ok());
}

TEST(SpillStoreTest, WriteTimeScrubRepairsSingleBitDamage) {
  TestHooks hooks = FlipBitsInBlock(0, 1);
  SpillStoreOptions options;
  options.cache_bytes = 0;
  options.scrub_after_seal = true;
  auto store = OpenStore(options, &hooks);
  const SpillSegment segment = MakeSegment(2, 6000, 0x66);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(store->stats().blocks_repaired, 1);
  EXPECT_GT(store->stats().scrubbed_blocks, 0);
  ASSERT_TRUE((*put)->ReadPartition(0, true).ok());
  EXPECT_EQ(store->stats().blocks_repaired, 1);  // already healed
}

TEST(SpillStoreTest, WriteTimeScrubFailsPutOnUnrepairableDamage) {
  TestHooks hooks = FlipBitsInBlock(0, 4);
  SpillStoreOptions options;
  options.scrub_after_seal = true;
  auto store = OpenStore(options, &hooks);
  auto put = store->Put(MakeSegment(2, 6000, 0x67), 0, 0);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kDataLoss);
  // The damaged extent must not linger on disk.
  EXPECT_TRUE(std::filesystem::is_empty(store->dir()));
}

TEST(SpillStoreTest, ExplicitScrubReportsAndHeals) {
  TestHooks hooks = FlipBitsInBlock(1, 1);
  SpillStoreOptions options;
  options.cache_bytes = 0;
  auto store = OpenStore(options, &hooks);
  auto put = store->Put(MakeSegment(2, 6000, 0x68), 0, 0);
  ASSERT_TRUE(put.ok());
  auto report = store->Scrub(**put);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->blocks, static_cast<int64_t>((*put)->blocks().size()));
  EXPECT_EQ(report->repaired, 1);
  EXPECT_EQ(report->lost, 0);
  auto again = store->Scrub(**put);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->repaired, 0);  // the write-back stuck
}

TEST(SpillStoreTest, ShortReadsAreTransparentlyCompleted) {
  int shorted = 0;
  TestHooks hooks;
  hooks.short_read = [&shorted](int, int, int64_t block) {
    if (block == 0 && shorted == 0) {
      ++shorted;
      return true;
    }
    return false;
  };
  SpillStoreOptions options;
  options.cache_bytes = 0;
  auto store = OpenStore(options, &hooks);
  const SpillSegment segment = MakeSegment(1, 6000, 0x69);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok());
  auto bytes = (*put)->ReadPartition(0, true);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, segment.PartitionData(0));
  EXPECT_EQ(store->stats().short_reads, 1);
}

TEST(SpillStoreTest, TransientReadErrorIsRetriedPersistentIsIOError) {
  TestHooks hooks;
  hooks.read_error = [](int, int, int64_t block, int retry) {
    if (block != 0) return false;
    return retry == 0;  // first attempt fails, the retry succeeds
  };
  SpillStoreOptions options;
  options.cache_bytes = 0;
  auto store = OpenStore(options, &hooks);
  const SpillSegment segment = MakeSegment(1, 6000, 0x6A);
  auto put = store->Put(segment, 0, 0);
  ASSERT_TRUE(put.ok());
  auto bytes = (*put)->ReadPartition(0, true);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, segment.PartitionData(0));
  EXPECT_GE(store->stats().read_errors, 1);

  hooks.read_error = [](int, int, int64_t, int) { return true; };
  auto dead = (*put)->ReadPartition(0, true);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kIOError);
}

// ---- Crash recovery ------------------------------------------------------

TEST(SpillStoreRecoveryTest, TruncatedExtentRecoversToLastIntactFrame) {
  // Build a standalone extent image: three stored frames with prefixes.
  std::string image;
  std::vector<size_t> frame_ends;
  for (int i = 0; i < 3; ++i) {
    std::string frame;
    BlockStore(std::string(1000 + i * 100, static_cast<char>('A' + i)),
               &frame);
    BufferWriter writer(&image);
    writer.AppendFixed32(static_cast<uint32_t>(frame.size()));
    writer.AppendRaw(frame);
    frame_ends.push_back(image.size());
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mrmb-recover-test").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/extent.tmp";

  const auto write_prefix = [&](size_t n) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(n));
  };

  // Intact file: all three frames survive, nothing truncated.
  write_prefix(image.size());
  auto full = RecoverExtentFile(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(*full, 3);
  EXPECT_EQ(std::filesystem::file_size(path), image.size());

  // Torn mid-frame-3: recovery keeps exactly two frames.
  write_prefix(frame_ends[1] + 20);
  auto torn = RecoverExtentFile(path);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(*torn, 2);
  EXPECT_EQ(std::filesystem::file_size(path), frame_ends[1]);

  // Torn inside the length prefix of frame 2: one frame survives.
  write_prefix(frame_ends[0] + 2);
  auto prefix = RecoverExtentFile(path);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, 1);
  EXPECT_EQ(std::filesystem::file_size(path), frame_ends[0]);

  std::filesystem::remove_all(dir);
}

// ---- Repair primitives ---------------------------------------------------

TEST(SpillStoreRepairTest, FindCrc32cSingleBitFlipLocatesEveryBit) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t good = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string bad = data;
      bad[byte] = static_cast<char>(bad[byte] ^ (1u << bit));
      const uint32_t syndrome = good ^ Crc32c(bad);
      size_t found_byte = 0;
      int found_bit = 0;
      ASSERT_TRUE(FindCrc32cSingleBitFlip(syndrome, data.size(), &found_byte,
                                          &found_bit));
      EXPECT_EQ(found_byte, byte);
      EXPECT_EQ(found_bit, bit);
    }
  }
}

TEST(SpillStoreRepairTest, RepairCodecFrameHealsOneBitRejectsTwo) {
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4,
                            std::string(5000, 'z') + "trailing entropy 123",
                            &frame)
                  .ok());
  const std::string pristine = frame;

  std::string one_bit = pristine;
  one_bit[kCodecFrameHeaderSize + 10] =
      static_cast<char>(one_bit[kCodecFrameHeaderSize + 10] ^ 0x10);
  ASSERT_TRUE(RepairCodecFrameSingleBitFlip(&one_bit).ok());
  EXPECT_EQ(one_bit, pristine);

  std::string two_bits = pristine;
  two_bits[kCodecFrameHeaderSize + 10] =
      static_cast<char>(two_bits[kCodecFrameHeaderSize + 10] ^ 0x10);
  two_bits[kCodecFrameHeaderSize + 40] =
      static_cast<char>(two_bits[kCodecFrameHeaderSize + 40] ^ 0x01);
  const Status repair = RepairCodecFrameSingleBitFlip(&two_bits);
  ASSERT_FALSE(repair.ok());
  EXPECT_EQ(repair.code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace mrmb
