// Span recording for the benchmark's traced runs.
//
// Spans are taken from outside the program: around calls the benchmark makes
// into a layer's public functions, and around calls the engine makes into the
// extension points LocalJobRunner::Run accepts (Mapper, MapContext::Emit,
// Partitioner, combiner and Reducer Reduce, ValueIterator::Next). Per-call
// times are added up into one span per (job, task, attempt, layer), not one
// span per record, and kept in memory until the run writes them out as
// Chrome-trace JSON.

#ifndef MRMBBENCH_TRACE_H_
#define MRMBBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapred/api.h"
#include "mapred/local_runner.h"

namespace mrmbbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Start of the trace timeline (first use in the process).
Clock::time_point TraceEpoch();

// The calls one task attempt made into one layer, added up.
struct Span {
  std::string layer;
  // Layer open on the calling thread at the first call ("" if none).
  std::string parent;
  int job = 0;
  int task = -1;
  int attempt = 0;
  double start_s = 0;  // first call, seconds since TraceEpoch()
  double total_s = 0;  // summed call durations
  double child_s = 0;  // part of total_s spent in nested spans
  int64_t calls = 0;
  // Layer-specific work counts (records in / out, values, bytes).
  int64_t items = 0;
  int64_t out_items = 0;

  double self_s() const { return total_s - child_s; }
};

// Times one call into `span`'s layer. Scopes nest through a thread-local
// stack: a nested scope's duration is charged to the enclosing span's
// child_s, so self time is the span minus its children.
class Timed {
 public:
  explicit Timed(Span* span);
  ~Timed();

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span* span_;
  Timed* parent_;
  Clock::time_point start_;
};

// Finished spans from every thread.
class SpanLog {
 public:
  void Add(Span span);
  std::vector<Span> spans() const;
  mrmb::Status WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

struct LayerTotals {
  double total_s = 0;
  double self_s = 0;
  int64_t calls = 0;
  int64_t items = 0;
  int64_t out_items = 0;
};

// Per-layer sums over the spans of `job` (all jobs when job < 0).
std::map<std::string, LayerTotals> SumByLayer(const std::vector<Span>& spans,
                                              int job);

// The job's extension points, as handed to LocalJobRunner::Run.
struct JobFactories {
  mrmb::MapperFactory mapper;
  mrmb::ReducerFactory reducer;
  mrmb::PartitionerFactory partitioner;
  mrmb::ReducerFactory combiner;  // null without a combiner
};

// Wraps every factory so each instance it makes records spans into `log`
// under job id `job`: mapred.map, mapred.emit, mapred.partition,
// mapred.combiner, mapred.reduce and mapred.reduce.value_wait.
JobFactories TraceFactories(JobFactories inner, SpanLog* log, int job);

// Wraps `inner` so every Reduce call is timed as `layer`, its values are
// counted (and timed as `value_layer` when not empty) and its emits are
// counted. Records into `log` when destroyed.
std::unique_ptr<mrmb::Reducer> TraceReducer(
    std::unique_ptr<mrmb::Reducer> inner, SpanLog* log, int job, int task,
    int attempt, const std::string& layer, const std::string& value_layer);

}  // namespace mrmbbench

#endif  // MRMBBENCH_TRACE_H_
