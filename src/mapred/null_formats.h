// The stand-alone job's input and output formats (Sect. 4.1).
//
// NullInputFormat creates one dummy split per map task with a single empty
// record; the mapper synthesizes its key/value pairs in memory (see
// GeneratingMapper). NullOutputFormat discards everything a reducer emits
// ("/dev/null"), so no distributed file system is involved anywhere — the
// MapReduce engine is measured as a stand-alone component.

#ifndef MRMB_MAPRED_NULL_FORMATS_H_
#define MRMB_MAPRED_NULL_FORMATS_H_

#include <atomic>
#include <cstdint>

#include "io/record_gen.h"
#include "mapred/api.h"
#include "mapred/partitioner.h"

namespace mrmb {

// One dummy split per map task, each with a single empty record.
class NullInputFormat final : public InputFormat {
 public:
  std::vector<InputSplit> GetSplits(const JobConf& conf,
                                    int num_splits) override;
  std::unique_ptr<RecordReader> CreateReader(const JobConf& conf,
                                             const InputSplit& split) override;
};

// Discards reduce output, counting what it would have written.
class NullOutputFormat final : public OutputFormat {
 public:
  std::unique_ptr<RecordWriter> CreateWriter(const JobConf& conf,
                                             int partition) override;

  // Totals across all writers created by this format instance.
  int64_t records_discarded() const { return records_; }
  int64_t bytes_discarded() const { return bytes_; }

 private:
  std::atomic<int64_t> records_{0};
  std::atomic<int64_t> bytes_{0};
};

// The micro-benchmark mapper: ignores its (dummy) input record and emits
// `conf.records_per_map` generated pairs, with key identity cycling over
// the configured unique-key count. Each distinct key is serialized once per
// map; values are generated per record.
class GeneratingMapper final : public Mapper {
 public:
  GeneratingMapper(const JobConf& conf, int task_id);
  void Map(std::string_view key, std::string_view value,
           MapContext* context) override;

 private:
  const JobConf& conf_;
  int task_id_;
  RecordGenerator generator_;
};

// Built-in CombinerKind::kSum: sums the LongWritable values of each group
// and emits one (key, sum) record. Associative and commutative, so the
// engine may re-apply it at merge time and across co-located map outputs
// (in-node combining) without changing job output. Also usable as a final
// Reducer for aggregation workloads whose output must be invariant to how
// aggressively the pipeline combined.
class SummingReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override;
};

// Task-scoped factory for `conf.combiner`; returns a null factory for
// CombinerKind::kNone (no combining).
ReducerFactory MakeBuiltinCombiner(CombinerKind kind);

// The micro-benchmark reducer: iterates every value of every group and
// discards it (the aggregation the paper's reducers perform).
class DiscardingReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override;

  int64_t groups_seen() const { return groups_; }
  int64_t values_seen() const { return values_seen_; }
  int64_t bytes_seen() const { return bytes_; }

 private:
  int64_t groups_ = 0;
  int64_t values_seen_ = 0;
  int64_t bytes_ = 0;
};

}  // namespace mrmb

#endif  // MRMB_MAPRED_NULL_FORMATS_H_
