// Partitioners — including the three custom partitioners that define the
// paper's micro-benchmarks (Sect. 4.2).
//
// A Partitioner assigns every map output record to a reduce partition. The
// paper's custom partitioners are *index driven* rather than key driven:
//   MR-AVG  — round-robin over reducers, perfectly even load;
//   MR-RAND — pseudo-random reducer per record (Java Random semantics: a
//             fixed seed yields "more or less ... the same pattern of
//             reducers" across runs — we seed deterministically);
//   MR-SKEW — 50% of pairs to reducer 0, 25% to reducer 1, 12.5% to
//             reducer 2, and the remaining 12.5% spread randomly; the
//             skewed shape is fixed for every run.
//
// PlanPartitionCounts() computes the exact per-reduce record counts a
// partitioner produces for a map task *without* running the per-record
// Partition() calls (MR-AVG in closed form, the random patterns by drawing
// the same stream), which is what lets the cluster simulation scale to
// paper-size shuffles; PlanJobPartitionCounts() plans all maps of a job at
// once, in parallel. Agreement with the per-record implementations is
// covered by tests.

#ifndef MRMB_MAPRED_PARTITIONER_H_
#define MRMB_MAPRED_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "io/comparator.h"
#include "mapred/job_conf.h"

namespace mrmb {

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  // Partition for the record with serialized key `key`, 0-based index
  // `record_index` within its map task. Must return a value in
  // [0, num_partitions).
  virtual int Partition(std::string_view key, int64_t record_index,
                        int num_partitions) = 0;
};

// Hadoop's default: hash(key) mod partitions. Provided for API completeness
// and the wordcount example; the micro-benchmarks use the custom ones.
class HashPartitioner final : public Partitioner {
 public:
  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override;
};

// MR-AVG.
class RoundRobinPartitioner final : public Partitioner {
 public:
  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override;
};

// MR-RAND.
class RandomPartitioner final : public Partitioner {
 public:
  explicit RandomPartitioner(uint64_t seed) : rng_(seed) {}
  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override;

 private:
  Rng rng_;
};

// MR-ZIPF (extension): reducer r receives records with probability
// proportional to 1/(r+1)^s. Draws are per record in index order, like
// MR-RAND, so PlanPartitionCounts agrees exactly.
class ZipfPartitioner final : public Partitioner {
 public:
  ZipfPartitioner(uint64_t seed, double exponent);
  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override;

 private:
  Rng rng_;
  double exponent_;
  // CDF over cdf_partitions_ reducers, rebuilt when the count changes.
  int cdf_partitions_ = 0;
  std::vector<double> cdf_;
};

// Quota boundaries for MR-SKEW: reducers 0..2 take 50%, 25%, 12.5% of all
// records; everything past `q2_end` is spread randomly.
struct SkewQuotas {
  int64_t q0_end;
  int64_t q1_end;
  int64_t q2_end;
};

// MR-SKEW. The cumulative quota shape (0.5, 0.75, 0.875 of all records to
// reducers 0, 1, 2) is enforced exactly; the tail is random.
class SkewPartitioner final : public Partitioner {
 public:
  // `total_records` must be the number of records this map task will emit;
  // the quota boundaries depend on it.
  SkewPartitioner(uint64_t seed, int64_t total_records);
  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override;

 private:
  Rng rng_;
  int64_t total_records_;
  SkewQuotas quotas_;  // computed once from total_records_
};

// TeraSort-style total-order partitioner: reducer r receives keys in
// [split_points[r-1], split_points[r]) under raw-byte order, so the
// concatenation of reducer outputs is globally sorted. Build the split
// points from a sample with BuildSplitPoints().
class RangePartitioner final : public Partitioner {
 public:
  // `split_points` are num_partitions-1 serialized keys in ascending
  // `comparator` order.
  RangePartitioner(std::vector<std::string> split_points,
                   const RawComparator* comparator);
  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override;

 private:
  std::vector<std::string> split_points_;
  const RawComparator* comparator_;
};

// Picks `num_partitions - 1` split points from a key sample (TeraSort's
// input sampling step). The sample is sorted with `comparator`; evenly
// spaced quantiles become the split points.
std::vector<std::string> BuildSplitPoints(std::vector<std::string> sample,
                                          int num_partitions,
                                          const RawComparator* comparator);

// Creates the partitioner implementing `pattern` for one map task.
// `zipf_exponent` is only read by DistributionPattern::kZipf.
std::unique_ptr<Partitioner> MakePartitioner(DistributionPattern pattern,
                                             uint64_t seed,
                                             int64_t records_in_task,
                                             double zipf_exponent = 1.0);

// Returns the per-reduce record counts the `pattern` partitioner yields for
// a map task emitting `records` records (deterministic given `seed`). Sum
// of counts == records.
std::vector<int64_t> PlanPartitionCounts(DistributionPattern pattern,
                                         uint64_t seed, int64_t records,
                                         int num_reduces,
                                         double zipf_exponent = 1.0);

// Plans a whole job: row m of the result (num_reduces counts; rows are
// concatenated) equals PlanPartitionCounts(pattern, seeds[m], ...). Maps
// are planned on up to `max_threads` threads (0 = one per hardware thread)
// when the job needs enough random draws to repay them, and serially
// otherwise. Each map keeps its own stream and row, so the result never
// depends on the thread count.
std::vector<int64_t> PlanJobPartitionCounts(
    DistributionPattern pattern, const std::vector<uint64_t>& seeds,
    int64_t records_per_map, int num_reduces, double zipf_exponent = 1.0,
    int max_threads = 0);

}  // namespace mrmb

#endif  // MRMB_MAPRED_PARTITIONER_H_
