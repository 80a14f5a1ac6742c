#include "trace.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>

namespace mrmbbench {

using mrmb::MapContext;
using mrmb::Mapper;
using mrmb::Partitioner;
using mrmb::ReduceContext;
using mrmb::Reducer;
using mrmb::Status;
using mrmb::ValueIterator;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

namespace {

thread_local Timed* tls_open = nullptr;

// Hands out attempt numbers: the engine calls a factory once per attempt.
class AttemptCounter {
 public:
  int Next(int task) {
    std::lock_guard<std::mutex> lock(mu_);
    return next_[task]++;
  }

 private:
  std::mutex mu_;
  std::map<int, int> next_;
};

Span MakeSpan(const std::string& layer, int job, int task, int attempt) {
  Span span;
  span.layer = layer;
  span.job = job;
  span.task = task;
  span.attempt = attempt;
  return span;
}

void Flush(SpanLog* log, Span* span) {
  if (span->calls > 0) log->Add(std::move(*span));
}

class TracedMapContext final : public MapContext {
 public:
  TracedMapContext(MapContext* inner, Span* emit)
      : inner_(inner), emit_(emit) {}

  void Emit(std::string_view key, std::string_view value) override {
    Timed timed(emit_);
    inner_->Emit(key, value);
  }
  const mrmb::JobConf& conf() const override { return inner_->conf(); }
  int task_id() const override { return inner_->task_id(); }

 private:
  MapContext* inner_;
  Span* emit_;
};

class TracedMapper final : public Mapper {
 public:
  TracedMapper(std::unique_ptr<Mapper> inner, SpanLog* log, int job, int task,
               int attempt)
      : inner_(std::move(inner)),
        log_(log),
        map_(MakeSpan("mapred.map", job, task, attempt)),
        emit_(MakeSpan("mapred.emit", job, task, attempt)) {}
  ~TracedMapper() override {
    Flush(log_, &map_);
    Flush(log_, &emit_);
  }

  void Map(std::string_view key, std::string_view value,
           MapContext* context) override {
    Timed timed(&map_);
    TracedMapContext traced(context, &emit_);
    inner_->Map(key, value, &traced);
  }

 private:
  std::unique_ptr<Mapper> inner_;
  SpanLog* log_;
  Span map_;
  Span emit_;
};

class TracedPartitioner final : public Partitioner {
 public:
  TracedPartitioner(std::unique_ptr<Partitioner> inner, SpanLog* log, int job,
                    int task, int attempt)
      : inner_(std::move(inner)),
        log_(log),
        span_(MakeSpan("mapred.partition", job, task, attempt)) {}
  ~TracedPartitioner() override { Flush(log_, &span_); }

  int Partition(std::string_view key, int64_t record_index,
                int num_partitions) override {
    Timed timed(&span_);
    return inner_->Partition(key, record_index, num_partitions);
  }

 private:
  std::unique_ptr<Partitioner> inner_;
  SpanLog* log_;
  Span span_;
};

// Counts (and optionally times) the values a reducer pulls.
class TracedValues final : public ValueIterator {
 public:
  TracedValues(ValueIterator* inner, Span* wait, int64_t* count)
      : inner_(inner), wait_(wait), count_(count) {}

  bool Next() override {
    bool more = false;
    if (wait_ != nullptr) {
      Timed timed(wait_);
      more = inner_->Next();
    } else {
      more = inner_->Next();
    }
    if (more) ++*count_;
    return more;
  }
  std::string_view value() const override { return inner_->value(); }

 private:
  ValueIterator* inner_;
  Span* wait_;
  int64_t* count_;
};

class CountingReduceContext final : public ReduceContext {
 public:
  CountingReduceContext(ReduceContext* inner, int64_t* count)
      : inner_(inner), count_(count) {}

  void Emit(std::string_view key, std::string_view value) override {
    ++*count_;
    inner_->Emit(key, value);
  }
  const mrmb::JobConf& conf() const override { return inner_->conf(); }
  int task_id() const override { return inner_->task_id(); }

 private:
  ReduceContext* inner_;
  int64_t* count_;
};

class TracedReducer final : public Reducer {
 public:
  TracedReducer(std::unique_ptr<Reducer> inner, SpanLog* log, int job,
                int task, int attempt, const std::string& layer,
                const std::string& value_layer)
      : inner_(std::move(inner)),
        log_(log),
        span_(MakeSpan(layer, job, task, attempt)),
        wait_(MakeSpan(value_layer, job, task, attempt)),
        time_values_(!value_layer.empty()) {}
  ~TracedReducer() override {
    Flush(log_, &span_);
    Flush(log_, &wait_);
  }

  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    Timed timed(&span_);
    TracedValues traced(values, time_values_ ? &wait_ : nullptr,
                        &span_.items);
    CountingReduceContext counting(context, &span_.out_items);
    inner_->Reduce(key, &traced, &counting);
  }

 private:
  std::unique_ptr<Reducer> inner_;
  SpanLog* log_;
  Span span_;
  Span wait_;
  const bool time_values_;
};

}  // namespace

Timed::Timed(Span* span)
    : span_(span), parent_(tls_open), start_(Clock::now()) {
  if (span_->calls == 0) {
    span_->start_s = Seconds(start_ - TraceEpoch());
    if (parent_ != nullptr) span_->parent = parent_->span_->layer;
  }
  tls_open = this;
}

Timed::~Timed() {
  const double elapsed = Seconds(Clock::now() - start_);
  span_->total_s += elapsed;
  ++span_->calls;
  if (parent_ != nullptr) parent_->span_->child_s += elapsed;
  tls_open = parent_;
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%d,\"task\":%d,"
        "\"attempt\":%d,\"parent\":\"%s\",\"self_us\":%.3f,\"calls\":%lld,"
        "\"items\":%lld,\"out_items\":%lld}}",
        i == 0 ? "" : ",", s.layer.c_str(), s.job, s.task, s.start_s * 1e6,
        s.total_s * 1e6, s.job, s.task, s.attempt, s.parent.c_str(),
        s.self_s() * 1e6, static_cast<long long>(s.calls),
        static_cast<long long>(s.items), static_cast<long long>(s.out_items));
    out << buf;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("short write to trace " + path);
  return Status::OK();
}

std::map<std::string, LayerTotals> SumByLayer(const std::vector<Span>& spans,
                                              int job) {
  std::map<std::string, LayerTotals> totals;
  for (const Span& s : spans) {
    if (job >= 0 && s.job != job) continue;
    LayerTotals& t = totals[s.layer];
    t.total_s += s.total_s;
    t.self_s += s.self_s();
    t.calls += s.calls;
    t.items += s.items;
    t.out_items += s.out_items;
  }
  return totals;
}

std::unique_ptr<Reducer> TraceReducer(std::unique_ptr<Reducer> inner,
                                      SpanLog* log, int job, int task,
                                      int attempt, const std::string& layer,
                                      const std::string& value_layer) {
  return std::make_unique<TracedReducer>(std::move(inner), log, job, task,
                                         attempt, layer, value_layer);
}

JobFactories TraceFactories(JobFactories inner, SpanLog* log, int job) {
  JobFactories traced;
  auto map_attempts = std::make_shared<AttemptCounter>();
  traced.mapper = [inner = inner.mapper, log, job,
                   map_attempts](int task) -> std::unique_ptr<Mapper> {
    return std::make_unique<TracedMapper>(inner(task), log, job, task,
                                          map_attempts->Next(task));
  };
  auto part_attempts = std::make_shared<AttemptCounter>();
  traced.partitioner = [inner = inner.partitioner, log, job,
                        part_attempts](int task)
      -> std::unique_ptr<Partitioner> {
    return std::make_unique<TracedPartitioner>(inner(task), log, job, task,
                                               part_attempts->Next(task));
  };
  auto reduce_attempts = std::make_shared<AttemptCounter>();
  traced.reducer = [inner = inner.reducer, log, job,
                    reduce_attempts](int task) {
    return TraceReducer(inner(task), log, job, task,
                        reduce_attempts->Next(task), "mapred.reduce",
                        "mapred.reduce.value_wait");
  };
  if (inner.combiner != nullptr) {
    auto combine_attempts = std::make_shared<AttemptCounter>();
    traced.combiner = [inner = inner.combiner, log, job,
                       combine_attempts](int task) {
      return TraceReducer(inner(task), log, job, task,
                          combine_attempts->Next(task), "mapred.combiner",
                          "");
    };
  }
  return traced;
}

}  // namespace mrmbbench
