#include "mapred/partitioner.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

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

// Below this many random draws per thread, planning a job on more threads
// costs more in thread start-up than it saves.
constexpr int64_t kMinDrawsPerThread = int64_t{1} << 18;

// Normalized cumulative weights 1/(r+1)^s of reducers 0..n-1.
std::vector<double> ZipfCdf(int num_partitions, double exponent) {
  std::vector<double> cdf(static_cast<size_t>(num_partitions));
  double total = 0;
  for (int r = 0; r < num_partitions; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[static_cast<size_t>(r)] = total;
  }
  for (double& v : cdf) v /= total;
  return cdf;
}

// The reducer a uniform `u` in [0, 1) picks under `cdf`.
int ZipfPick(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<int>(it - cdf.begin()),
                  static_cast<int>(cdf.size()) - 1);
}

// Random draws PlanPartitionCounts makes for one map of `records` records.
int64_t DrawsPerMap(DistributionPattern pattern, int64_t records) {
  switch (pattern) {
    case DistributionPattern::kAverage:
      return 0;
    case DistributionPattern::kSkewed:
      return records - QuotasFor(records).q2_end;
    case DistributionPattern::kRandom:
    case DistributionPattern::kZipf:
      return records;
  }
  return records;
}

// Adds `draws` draws of Rng(seed).Uniform(num_partitions) to their
// partitions' counts. Same stream as calling Uniform in a loop; Lemire's
// rejection threshold is computed once instead of on every rejected draw,
// and the generator is a local the compiler can keep in registers (the
// int64_t counts could otherwise alias its uint64_t state).
void CountUniformDraws(uint64_t seed, int64_t draws, int num_partitions,
                       int64_t* counts) {
  Rng rng(seed);
  const auto bound = static_cast<uint64_t>(num_partitions);
  const uint64_t threshold = -bound % bound;
  for (int64_t i = 0; i < draws; ++i) {
    __uint128_t m = static_cast<__uint128_t>(rng.Next64()) * bound;
    // Uniform rejects while low < threshold; threshold < bound, so its
    // outer `low < bound` test never changes the outcome.
    while (static_cast<uint64_t>(m) < threshold) {
      m = static_cast<__uint128_t>(rng.Next64()) * bound;
    }
    ++counts[static_cast<uint64_t>(m >> 64)];
  }
}

// PlanPartitionCounts into `counts[0, num_reduces)`, which start at zero.
// `zipf_cdf` is ZipfCdf(num_reduces, exponent) for MR-ZIPF. Allocates
// nothing, so planner threads never attach a malloc arena.
void PlanInto(DistributionPattern pattern, uint64_t seed, int64_t records,
              int num_reduces, const std::vector<double>& zipf_cdf,
              int64_t* counts) {
  switch (pattern) {
    case DistributionPattern::kAverage: {
      const int64_t base = records / num_reduces;
      const int64_t rem = records % num_reduces;
      for (int r = 0; r < num_reduces; ++r) {
        counts[r] = base + (r < rem ? 1 : 0);
      }
      break;
    }
    case DistributionPattern::kRandom: {
      // Identical stream to RandomPartitioner(seed): exact agreement.
      CountUniformDraws(seed, records, num_reduces, counts);
      break;
    }
    case DistributionPattern::kSkewed: {
      const SkewQuotas q = QuotasFor(records);
      counts[ClampSlot(0, num_reduces)] += q.q0_end;
      counts[ClampSlot(1, num_reduces)] += q.q1_end - q.q0_end;
      counts[ClampSlot(2, num_reduces)] += q.q2_end - q.q1_end;
      CountUniformDraws(seed, records - q.q2_end, num_reduces, counts);
      break;
    }
    case DistributionPattern::kZipf: {
      // Identical stream to ZipfPartitioner(seed, exponent).
      Rng rng(seed);
      for (int64_t i = 0; i < records; ++i) {
        ++counts[ZipfPick(zipf_cdf, rng.NextDouble())];
      }
      break;
    }
  }
}

// One job plan shared by its planner threads; lives on the caller's stack.
struct JobPlan {
  DistributionPattern pattern;
  const std::vector<uint64_t>* seeds;
  int64_t records_per_map;
  int num_reduces;
  const std::vector<double>* zipf_cdf;
  int64_t* counts;  // seeds->size() rows of num_reduces
  std::atomic<size_t> next_map{0};
};

struct PlanWorker {
  JobPlan* plan;
  int64_t* row;  // private scratch row, on its own cache lines
};

// Plans maps until none are left. Each map has its own seeded stream and
// its own row, so which thread plans it cannot change the result; counting
// into a private row keeps threads from sharing cache lines while drawing.
void* RunPlanWorker(void* arg) {
  const PlanWorker& worker = *static_cast<PlanWorker*>(arg);
  JobPlan& plan = *worker.plan;
  const auto width = static_cast<size_t>(plan.num_reduces);
  for (size_t m = plan.next_map++; m < plan.seeds->size();
       m = plan.next_map++) {
    std::fill(worker.row, worker.row + width, 0);
    PlanInto(plan.pattern, (*plan.seeds)[m], plan.records_per_map,
             plan.num_reduces, *plan.zipf_cdf, worker.row);
    std::copy(worker.row, worker.row + width, plan.counts + m * width);
  }
  return nullptr;
}

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

int ZipfPartitioner::Partition(std::string_view /*key*/,
                               int64_t /*record_index*/, int num_partitions) {
  MRMB_CHECK_GT(num_partitions, 0);
  if (num_partitions != cdf_partitions_) {
    cdf_ = ZipfCdf(num_partitions, exponent_);
    cdf_partitions_ = num_partitions;
  }
  return ZipfPick(cdf_, rng_.NextDouble());
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
  return PlanJobPartitionCounts(pattern, {seed}, records, num_reduces,
                                zipf_exponent, 1);
}

std::vector<int64_t> PlanJobPartitionCounts(
    DistributionPattern pattern, const std::vector<uint64_t>& seeds,
    int64_t records_per_map, int num_reduces, double zipf_exponent,
    int max_threads) {
  MRMB_CHECK_GE(records_per_map, 0);
  MRMB_CHECK_GT(num_reduces, 0);
  MRMB_CHECK_GE(max_threads, 0);
  const size_t maps = seeds.size();
  const auto width = static_cast<size_t>(num_reduces);
  std::vector<int64_t> counts(maps * width, 0);
  const std::vector<double> zipf_cdf =
      pattern == DistributionPattern::kZipf
          ? ZipfCdf(num_reduces, zipf_exponent)
          : std::vector<double>();
  JobPlan plan{pattern,     &seeds,    records_per_map,
               num_reduces, &zipf_cdf, counts.data()};

  const int64_t draws =
      DrawsPerMap(pattern, records_per_map) * static_cast<int64_t>(maps);
  int64_t threads = max_threads > 0
                        ? max_threads
                        : static_cast<int64_t>(
                              std::thread::hardware_concurrency());
  threads = std::max<int64_t>(
      1, std::min({threads, static_cast<int64_t>(maps),
                   draws / kMinDrawsPerThread}));
  // 64 bytes between rows: no two threads' rows share a cache line.
  const size_t stride = width + 8;
  std::vector<int64_t> rows(static_cast<size_t>(threads) * stride);
  std::vector<PlanWorker> workers;
  for (int64_t t = 0; t < threads; ++t) {
    workers.push_back({&plan, rows.data() + static_cast<size_t>(t) * stride});
  }
  // Helpers are raw pthreads that never call malloc or free (a
  // std::thread frees its start state on the new thread). A thread that
  // touches the heap attaches a glibc arena and, on exit, leaves it on a
  // free list; a functional job's short-lived task threads then rotate
  // through those arenas, each keeping its own retained heap, and a process
  // alternating sims and 1-thread jobs peaked at 2.2x the memory.
  std::vector<pthread_t> helpers;
  for (int64_t t = 1; t < threads; ++t) {
    pthread_t helper;
    if (pthread_create(&helper, nullptr, RunPlanWorker,
                       &workers[static_cast<size_t>(t)]) != 0) {
      break;  // the threads already running share the work
    }
    helpers.push_back(helper);
  }
  RunPlanWorker(&workers[0]);
  for (pthread_t helper : helpers) pthread_join(helper, nullptr);
  return counts;
}

}  // namespace mrmb
