#include "mapred/partitioner.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "io/byte_buffer.h"

namespace mrmb {
namespace {

TEST(HashPartitionerTest, InRangeAndDeterministic) {
  HashPartitioner partitioner;
  for (int parts : {1, 2, 8, 17}) {
    for (const char* key : {"a", "b", "key-123", ""}) {
      const int p1 = partitioner.Partition(key, 0, parts);
      const int p2 = partitioner.Partition(key, 99, parts);
      EXPECT_GE(p1, 0);
      EXPECT_LT(p1, parts);
      EXPECT_EQ(p1, p2) << "hash partition must ignore record index";
    }
  }
}

TEST(HashPartitionerTest, SpreadsKeys) {
  HashPartitioner partitioner;
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[static_cast<size_t>(
        partitioner.Partition("key" + std::to_string(i), 0, 8))];
  }
  for (int count : counts) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
}

TEST(RoundRobinPartitionerTest, CyclesExactly) {
  RoundRobinPartitioner partitioner;
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(partitioner.Partition("ignored", i, 8), i % 8);
  }
}

TEST(RoundRobinPartitionerTest, PerfectBalance) {
  RoundRobinPartitioner partitioner;
  std::vector<int64_t> counts(8, 0);
  for (int64_t i = 0; i < 8000; ++i) {
    ++counts[static_cast<size_t>(partitioner.Partition("", i, 8))];
  }
  for (int64_t count : counts) EXPECT_EQ(count, 1000);
}

TEST(RandomPartitionerTest, DeterministicGivenSeed) {
  RandomPartitioner a(42);
  RandomPartitioner b(42);
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Partition("", i, 8), b.Partition("", i, 8));
  }
}

TEST(RandomPartitionerTest, RoughlyBalanced) {
  // The paper: MR-RAND "is relatively close to an even distribution".
  RandomPartitioner partitioner(7);
  std::vector<int64_t> counts(8, 0);
  constexpr int64_t kRecords = 80000;
  for (int64_t i = 0; i < kRecords; ++i) {
    ++counts[static_cast<size_t>(partitioner.Partition("", i, 8))];
  }
  for (int64_t count : counts) {
    EXPECT_GT(count, 9500);
    EXPECT_LT(count, 10500);
  }
}

TEST(SkewPartitionerTest, QuotaBoundaries) {
  constexpr int64_t kRecords = 1000;
  SkewPartitioner partitioner(1, kRecords);
  // First 500 records -> reducer 0; next 250 -> 1; next 125 -> 2.
  for (int64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(partitioner.Partition("", i, 8), 0) << i;
  }
  for (int64_t i = 500; i < 750; ++i) {
    EXPECT_EQ(partitioner.Partition("", i, 8), 1) << i;
  }
  for (int64_t i = 750; i < 875; ++i) {
    EXPECT_EQ(partitioner.Partition("", i, 8), 2) << i;
  }
  for (int64_t i = 875; i < kRecords; ++i) {
    const int p = partitioner.Partition("", i, 8);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
  }
}

TEST(SkewPartitionerTest, FixedShapeAcrossSeeds) {
  // The skewed quota part is identical for every seed ("fixed for all
  // runs"); only the random tail varies.
  constexpr int64_t kRecords = 800;
  SkewPartitioner a(1, kRecords);
  SkewPartitioner b(999, kRecords);
  for (int64_t i = 0; i < 700; ++i) {  // within the 87.5% quota region
    EXPECT_EQ(a.Partition("", i, 8), b.Partition("", i, 8));
  }
}

TEST(PlanPartitionCountsTest, AverageExact) {
  const auto counts =
      PlanPartitionCounts(DistributionPattern::kAverage, 1, 1000, 8);
  ASSERT_EQ(counts.size(), 8u);
  for (int64_t count : counts) EXPECT_EQ(count, 125);
}

TEST(PlanPartitionCountsTest, AverageWithRemainder) {
  const auto counts =
      PlanPartitionCounts(DistributionPattern::kAverage, 1, 10, 4);
  EXPECT_EQ(counts, (std::vector<int64_t>{3, 3, 2, 2}));
}

TEST(PlanPartitionCountsTest, SumsToRecords) {
  for (DistributionPattern pattern :
       {DistributionPattern::kAverage, DistributionPattern::kRandom,
        DistributionPattern::kSkewed}) {
    for (int64_t records : {int64_t{0}, int64_t{1}, int64_t{7},
                            int64_t{1000}, int64_t{12345}}) {
      const auto counts = PlanPartitionCounts(pattern, 3, records, 8);
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
                records)
          << DistributionPatternName(pattern) << " " << records;
    }
  }
}

TEST(PlanPartitionCountsTest, RandomMatchesPartitionerExactly) {
  constexpr int64_t kRecords = 5000;
  constexpr uint64_t kSeed = 77;
  const auto planned =
      PlanPartitionCounts(DistributionPattern::kRandom, kSeed, kRecords, 8);
  RandomPartitioner partitioner(kSeed);
  std::vector<int64_t> actual(8, 0);
  for (int64_t i = 0; i < kRecords; ++i) {
    ++actual[static_cast<size_t>(partitioner.Partition("", i, 8))];
  }
  EXPECT_EQ(planned, actual);
}

TEST(PlanPartitionCountsTest, SkewMatchesPartitionerExactly) {
  constexpr int64_t kRecords = 5000;
  constexpr uint64_t kSeed = 78;
  const auto planned =
      PlanPartitionCounts(DistributionPattern::kSkewed, kSeed, kRecords, 8);
  SkewPartitioner partitioner(kSeed, kRecords);
  std::vector<int64_t> actual(8, 0);
  for (int64_t i = 0; i < kRecords; ++i) {
    ++actual[static_cast<size_t>(partitioner.Partition("", i, 8))];
  }
  EXPECT_EQ(planned, actual);
}

TEST(PlanPartitionCountsTest, SkewShape) {
  const auto counts =
      PlanPartitionCounts(DistributionPattern::kSkewed, 5, 100000, 8);
  // Reducer 0 gets 50% + ~1/8 of the 12.5% random tail.
  EXPECT_GT(counts[0], 50000);
  EXPECT_LT(counts[0], 53500);
  EXPECT_GT(counts[1], 25000);
  EXPECT_LT(counts[1], 28500);
  EXPECT_GT(counts[2], 12500);
  EXPECT_LT(counts[2], 16000);
  for (size_t r = 3; r < 8; ++r) {
    // Only the random tail: ~12.5% / 8 each.
    EXPECT_GT(counts[r], 800);
    EXPECT_LT(counts[r], 2400);
  }
}

TEST(PlanPartitionCountsTest, SkewWithFewPartitionsClamps) {
  const auto counts =
      PlanPartitionCounts(DistributionPattern::kSkewed, 5, 1000, 2);
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 1000);
  // Quota slots 0 and 2 both land on partition 0: >= 62.5%.
  EXPECT_GT(counts[0], 600);
}

// Plans big enough to start threads (the planner goes parallel from 2^18
// draws per thread): the job plan must be the same for 1, 4 and the
// automatic number of threads, and every row must equal both the per-map
// plan and a count of the per-record partitioner's choices.
TEST(PlanPartitionCountsTest, ParallelJobPlanEqualsSerialAndPerRecord) {
  constexpr int kMaps = 8;
  struct Case {
    DistributionPattern pattern;
    int64_t records_per_map;  // >= 2^20 draws over the job
    int reduces;
  };
  for (const Case& c : {Case{DistributionPattern::kAverage, 50000, 7},
                        Case{DistributionPattern::kRandom, 160000, 7},
                        Case{DistributionPattern::kRandom, 160000, 64},
                        Case{DistributionPattern::kSkewed, 1100000, 64},
                        Case{DistributionPattern::kZipf, 160000, 13}}) {
    SCOPED_TRACE(DistributionPatternName(c.pattern));
    std::vector<uint64_t> seeds;
    for (int m = 0; m < kMaps; ++m) seeds.push_back(3 + 7919ULL * m);
    const std::vector<int64_t> serial = PlanJobPartitionCounts(
        c.pattern, seeds, c.records_per_map, c.reduces, 1.2, 1);
    EXPECT_EQ(PlanJobPartitionCounts(c.pattern, seeds, c.records_per_map,
                                     c.reduces, 1.2, 4),
              serial);
    EXPECT_EQ(PlanJobPartitionCounts(c.pattern, seeds, c.records_per_map,
                                     c.reduces, 1.2),
              serial);
    ASSERT_EQ(serial.size(), static_cast<size_t>(kMaps * c.reduces));
    for (int m = 0; m < kMaps; ++m) {
      const std::vector<int64_t> row(serial.begin() + m * c.reduces,
                                     serial.begin() + (m + 1) * c.reduces);
      EXPECT_EQ(row, PlanPartitionCounts(c.pattern, seeds[m],
                                         c.records_per_map, c.reduces, 1.2))
          << "map " << m;
      auto partitioner =
          MakePartitioner(c.pattern, seeds[m], c.records_per_map, 1.2);
      std::vector<int64_t> actual(static_cast<size_t>(c.reduces), 0);
      for (int64_t i = 0; i < c.records_per_map; ++i) {
        ++actual[static_cast<size_t>(
            partitioner->Partition("", i, c.reduces))];
      }
      EXPECT_EQ(row, actual) << "map " << m;
    }
  }
}

TEST(PlanPartitionCountsTest, JobPlanOfNoMapsIsEmpty) {
  EXPECT_TRUE(PlanJobPartitionCounts(DistributionPattern::kRandom, {}, 1000,
                                     8)
                  .empty());
}

namespace {
std::string Wire(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}
}  // namespace

TEST(RangePartitionerTest, RoutesKeysByRange) {
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  RangePartitioner partitioner({Wire("g"), Wire("p")}, cmp);
  EXPECT_EQ(partitioner.Partition(Wire("a"), 0, 3), 0);
  EXPECT_EQ(partitioner.Partition(Wire("f"), 0, 3), 0);
  EXPECT_EQ(partitioner.Partition(Wire("g"), 0, 3), 1);  // boundary: >=
  EXPECT_EQ(partitioner.Partition(Wire("m"), 0, 3), 1);
  EXPECT_EQ(partitioner.Partition(Wire("p"), 0, 3), 2);
  EXPECT_EQ(partitioner.Partition(Wire("z"), 0, 3), 2);
}

TEST(RangePartitionerTest, SinglePartitionNoSplits) {
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  RangePartitioner partitioner({}, cmp);
  EXPECT_EQ(partitioner.Partition(Wire("anything"), 0, 1), 0);
}

TEST(RangePartitionerTest, PreservesGlobalOrderProperty) {
  // Keys routed to partition p are all <= keys routed to partition p+1.
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  Rng rng(3);
  std::vector<std::string> sample;
  for (int i = 0; i < 200; ++i) {
    std::string payload(8, '\0');
    rng.Fill(payload.data(), payload.size());
    sample.push_back(Wire(payload));
  }
  const auto splits = BuildSplitPoints(sample, 5, cmp);
  ASSERT_EQ(splits.size(), 4u);
  RangePartitioner partitioner(splits, cmp);
  std::vector<std::string> max_of_partition(5);
  std::vector<std::string> min_of_partition(5);
  for (int i = 0; i < 2000; ++i) {
    std::string payload(8, '\0');
    rng.Fill(payload.data(), payload.size());
    const std::string key = Wire(payload);
    const int p = partitioner.Partition(key, i, 5);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 5);
    auto& max = max_of_partition[static_cast<size_t>(p)];
    auto& min = min_of_partition[static_cast<size_t>(p)];
    if (max.empty() || cmp->Compare(key, max) > 0) max = key;
    if (min.empty() || cmp->Compare(key, min) < 0) min = key;
  }
  for (size_t p = 1; p < 5; ++p) {
    if (max_of_partition[p - 1].empty() || min_of_partition[p].empty()) {
      continue;
    }
    EXPECT_LE(cmp->Compare(max_of_partition[p - 1], min_of_partition[p]), 0)
        << "partition " << p;
  }
}

TEST(RangePartitionerTest, MismatchedPartitionCountDies) {
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  RangePartitioner partitioner({Wire("m")}, cmp);
  EXPECT_DEATH({ partitioner.Partition(Wire("a"), 0, 5); }, "split points");
}

TEST(RangePartitionerTest, UnsortedSplitsDie) {
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  EXPECT_DEATH(
      { RangePartitioner partitioner({Wire("z"), Wire("a")}, cmp); },
      "sorted");
}

TEST(BuildSplitPointsTest, QuantilesFromSample) {
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  std::vector<std::string> sample;
  for (char c = 'a'; c <= 'z'; ++c) sample.push_back(Wire(std::string(1, c)));
  const auto splits = BuildSplitPoints(sample, 2, cmp);
  ASSERT_EQ(splits.size(), 1u);
  // Median-ish split point.
  EXPECT_EQ(splits[0], Wire("n"));
}

TEST(BuildSplitPointsTest, DegenerateInputs) {
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  EXPECT_TRUE(BuildSplitPoints({}, 4, cmp).empty());
  EXPECT_TRUE(BuildSplitPoints({Wire("x")}, 1, cmp).empty());
  const auto tiny = BuildSplitPoints({Wire("x")}, 4, cmp);
  EXPECT_EQ(tiny.size(), 3u);  // all equal to the single sample
}

TEST(MakePartitionerTest, ProducesRequestedKinds) {
  auto avg = MakePartitioner(DistributionPattern::kAverage, 1, 100);
  auto rand = MakePartitioner(DistributionPattern::kRandom, 1, 100);
  auto skew = MakePartitioner(DistributionPattern::kSkewed, 1, 100);
  EXPECT_EQ(avg->Partition("", 5, 8), 5);
  const int r = rand->Partition("", 0, 8);
  EXPECT_GE(r, 0);
  EXPECT_LT(r, 8);
  EXPECT_EQ(skew->Partition("", 0, 8), 0);
}

TEST(DistributionPatternTest, Names) {
  EXPECT_STREQ(DistributionPatternName(DistributionPattern::kAverage),
               "MR-AVG");
  EXPECT_STREQ(DistributionPatternName(DistributionPattern::kRandom),
               "MR-RAND");
  EXPECT_STREQ(DistributionPatternName(DistributionPattern::kSkewed),
               "MR-SKEW");
}

TEST(DistributionPatternTest, LookupByName) {
  EXPECT_EQ(*DistributionPatternByName("MR-AVG"),
            DistributionPattern::kAverage);
  EXPECT_EQ(*DistributionPatternByName("avg"), DistributionPattern::kAverage);
  EXPECT_EQ(*DistributionPatternByName("random"),
            DistributionPattern::kRandom);
  EXPECT_EQ(*DistributionPatternByName("SKEW"), DistributionPattern::kSkewed);
  EXPECT_EQ(*DistributionPatternByName("zipf"), DistributionPattern::kZipf);
  EXPECT_FALSE(DistributionPatternByName("pareto").ok());
}

}  // namespace
}  // namespace mrmb
