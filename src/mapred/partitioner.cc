#include "mapred/partitioner.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mrmb {

namespace {

SkewQuotas QuotasFor(int64_t total_records) {
  SkewQuotas q;
  q.q0_end = total_records / 2;
  q.q1_end = q.q0_end + total_records / 4;
  q.q2_end = q.q1_end + total_records / 8;
  return q;
}

// Maps a quota slot (0, 1, 2) onto a valid partition even for tiny reducer
// counts (the paper always uses >= 8 reducers; this keeps small test
// configurations well-defined).
int ClampSlot(int slot, int num_partitions) { return slot % num_partitions; }

}  // namespace

int HashPartitioner::Partition(std::string_view key, int64_t /*record_index*/,
                               int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  // FNV-1a over the serialized key, masked non-negative like Hadoop's
  // (hash & Integer.MAX_VALUE) % numReduceTasks.
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : key) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return static_cast<int>((hash & 0x7fffffffULL) %
                          static_cast<uint64_t>(num_partitions));
}

int RoundRobinPartitioner::Partition(std::string_view /*key*/,
                                     int64_t record_index,
                                     int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  MRMB_CHECK_GE(record_index, 0);
  return static_cast<int>(record_index %
                          static_cast<int64_t>(num_partitions));
}

int RandomPartitioner::Partition(std::string_view /*key*/,
                                 int64_t /*record_index*/,
                                 int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  return static_cast<int>(rng_.Uniform(static_cast<uint64_t>(num_partitions)));
}

ZipfPartitioner::ZipfPartitioner(uint64_t seed, double exponent)
    : rng_(seed), exponent_(exponent) {
  MRMB_CHECK_GE(exponent_, 0.0);
}

void ZipfPartitioner::BuildCdf(int num_partitions) {
  cdf_.resize(static_cast<size_t>(num_partitions));
  double total = 0;
  for (int r = 0; r < num_partitions; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent_);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& v : cdf_) v /= total;
  cdf_partitions_ = num_partitions;
}

int ZipfPartitioner::Partition(std::string_view /*key*/,
                               int64_t /*record_index*/, int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  if (num_partitions != cdf_partitions_) BuildCdf(num_partitions);
  const double u = rng_.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto index = static_cast<int>(it - cdf_.begin());
  return std::min(index, num_partitions - 1);
}

SkewPartitioner::SkewPartitioner(uint64_t seed, int64_t total_records)
    : rng_(seed),
      total_records_(total_records),
      quotas_(QuotasFor(total_records)) {
  MRMB_CHECK_GE(total_records_, 0);
}

int SkewPartitioner::Partition(std::string_view /*key*/, int64_t record_index,
                               int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  MRMB_CHECK_LT(record_index, total_records_);
  if (record_index < quotas_.q0_end) return ClampSlot(0, num_partitions);
  if (record_index < quotas_.q1_end) return ClampSlot(1, num_partitions);
  if (record_index < quotas_.q2_end) return ClampSlot(2, num_partitions);
  // NOTE: tail records must be partitioned in index order for the stream of
  // random draws to match PlanPartitionCounts().
  return static_cast<int>(rng_.Uniform(static_cast<uint64_t>(num_partitions)));
}

RangePartitioner::RangePartitioner(std::vector<std::string> split_points,
                                   const RawComparator* comparator)
    : split_points_(std::move(split_points)), comparator_(comparator) {
  MRMB_CHECK(comparator_ != nullptr);
  for (size_t i = 1; i < split_points_.size(); ++i) {
    MRMB_CHECK_LE(comparator_->Compare(split_points_[i - 1],
                                       split_points_[i]),
                  0)
        << "split points must be sorted";
  }
}

int RangePartitioner::Partition(std::string_view key,
                                int64_t /*record_index*/,
                                int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  MRMB_CHECK_EQ(static_cast<size_t>(num_partitions),
                split_points_.size() + 1)
      << "partition count does not match split points";
  // First split point strictly greater than the key.
  const auto it = std::upper_bound(
      split_points_.begin(), split_points_.end(), key,
      [this](std::string_view k, const std::string& split) {
        return comparator_->Compare(k, split) < 0;
      });
  return static_cast<int>(it - split_points_.begin());
}

std::vector<std::string> BuildSplitPoints(std::vector<std::string> sample,
                                          int num_partitions,
                                          const RawComparator* comparator) {
  MRMB_CHECK_GT(num_partitions, 0);
  MRMB_CHECK(comparator != nullptr);
  std::sort(sample.begin(), sample.end(),
            [comparator](const std::string& a, const std::string& b) {
              return comparator->Compare(a, b) < 0;
            });
  std::vector<std::string> splits;
  if (num_partitions <= 1 || sample.empty()) return splits;
  splits.reserve(static_cast<size_t>(num_partitions - 1));
  for (int r = 1; r < num_partitions; ++r) {
    const size_t index = std::min(
        sample.size() - 1,
        static_cast<size_t>(r) * sample.size() /
            static_cast<size_t>(num_partitions));
    splits.push_back(sample[index]);
  }
  return splits;
}

std::unique_ptr<Partitioner> MakePartitioner(DistributionPattern pattern,
                                             uint64_t seed,
                                             int64_t records_in_task,
                                             double zipf_exponent) {
  switch (pattern) {
    case DistributionPattern::kAverage:
      return std::make_unique<RoundRobinPartitioner>();
    case DistributionPattern::kRandom:
      return std::make_unique<RandomPartitioner>(seed);
    case DistributionPattern::kSkewed:
      return std::make_unique<SkewPartitioner>(seed, records_in_task);
    case DistributionPattern::kZipf:
      return std::make_unique<ZipfPartitioner>(seed, zipf_exponent);
  }
  MRMB_CHECK(false) << "unreachable";
  return nullptr;
}

std::vector<int64_t> PlanPartitionCounts(DistributionPattern pattern,
                                         uint64_t seed, int64_t records,
                                         int num_reduces,
                                         double zipf_exponent) {
  MRMB_CHECK_GE(records, 0);
  MRMB_CHECK_GT(num_reduces, 0);
  std::vector<int64_t> counts(static_cast<size_t>(num_reduces), 0);
  switch (pattern) {
    case DistributionPattern::kAverage: {
      const int64_t base = records / num_reduces;
      const int64_t rem = records % num_reduces;
      for (int r = 0; r < num_reduces; ++r) {
        counts[static_cast<size_t>(r)] = base + (r < rem ? 1 : 0);
      }
      break;
    }
    case DistributionPattern::kRandom: {
      // Identical stream to RandomPartitioner(seed): exact agreement.
      Rng rng(seed);
      for (int64_t i = 0; i < records; ++i) {
        ++counts[rng.Uniform(static_cast<uint64_t>(num_reduces))];
      }
      break;
    }
    case DistributionPattern::kSkewed: {
      const SkewQuotas q = QuotasFor(records);
      counts[static_cast<size_t>(ClampSlot(0, num_reduces))] += q.q0_end;
      counts[static_cast<size_t>(ClampSlot(1, num_reduces))] +=
          q.q1_end - q.q0_end;
      counts[static_cast<size_t>(ClampSlot(2, num_reduces))] +=
          q.q2_end - q.q1_end;
      Rng rng(seed);
      for (int64_t i = q.q2_end; i < records; ++i) {
        ++counts[rng.Uniform(static_cast<uint64_t>(num_reduces))];
      }
      break;
    }
    case DistributionPattern::kZipf: {
      // Identical stream to ZipfPartitioner(seed, exponent).
      ZipfPartitioner partitioner(seed, zipf_exponent);
      for (int64_t i = 0; i < records; ++i) {
        ++counts[static_cast<size_t>(
            partitioner.Partition({}, i, num_reduces))];
      }
      break;
    }
  }
  return counts;
}

}  // namespace mrmb
