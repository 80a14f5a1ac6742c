// Engine benchmark harness: times the functional engine on real bytes and
// writes one JSON report per scenario.
//
// Usage:
//   run_bench [--scenario=NAME] [--records=1000000] [--merge-segments=32]
//             [--sort-threads=4] [--reps=5] [--quick] [--engine=LABEL]
//             [--baseline=FILE] [--out=FILE|-]
//
// Scenarios (default output files are in the table at the end):
//   sort-merge          collect+sort, k-way merge and two end-to-end jobs
//   shuffle-overlap     full map/shuffle barrier vs early reduce slow-start
//   compressed-shuffle  CRC32C kernels, then map-output codecs by bandwidth
//   disk-spill          in memory vs every spill on disk vs disk + ARC cache
//   crash-recovery      restart from scratch vs resume from the job journal
//   socket-shuffle      in-process vs loopback TCP, 1/2/4 streams x codec
//   pipelined-shuffle   wire protocol v1 vs batched v2, reactors x window
//   calibrate           loopback fetch-cost fit the simulator reloads
//   combiner-ablation   off / per-spill / merge-time / in-node combining
//
// Every scenario times each configuration best-of-`reps`, aborts when runs
// that must produce the same output bytes do not (the CRC32C output
// fingerprint is the oracle), and writes its report through a temp file +
// rename; --out=- streams it to stdout. SIGINT stops after the rep in
// flight, writes the partial report with "interrupted": true and exits 130.
// --baseline=FILE adds before/after speedups to the sort-merge kernels from
// an earlier sort-merge report.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/kv_buffer.h"
#include "io/merge.h"
#include "io/writable.h"
#include "mapred/local_runner.h"
#include "mapred/null_formats.h"
#include "mrmb/benchmark.h"
#include "net/shuffle_transport.h"
#include "sim/calibration.h"

namespace mrmb {
namespace {

// Frozen splitmix64: the harness owns its RNG so the material it times
// never changes with the library's.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

std::string RandomBytes(BenchRng* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->Uniform(256));
  return bytes;
}

std::string RandomPayload(BenchRng* rng, size_t min_len, size_t max_len) {
  return RandomBytes(
      rng, min_len + static_cast<size_t>(rng->Uniform(max_len - min_len + 1)));
}

template <typename W>
std::string Wire(const W& writable) {
  BufferWriter writer;
  writable.Serialize(&writer);
  return writer.data();
}

struct BenchRecord {
  int partition;
  std::string key;
  std::string value;
};

// Pre-generated workload: "1M small Text/Bytes/Int records", values 8 B.
std::vector<BenchRecord> MakeRecords(DataType type, int64_t n,
                                     int num_partitions, uint64_t seed) {
  std::vector<BenchRecord> records;
  records.reserve(static_cast<size_t>(n));
  BenchRng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    BenchRecord r;
    r.partition =
        static_cast<int>(rng.Uniform(static_cast<uint64_t>(num_partitions)));
    switch (type) {
      case DataType::kText:
        r.key = Wire(Text(RandomPayload(&rng, 10, 20)));
        break;
      case DataType::kIntWritable:
        r.key = Wire(IntWritable(static_cast<int32_t>(rng.Next())));
        break;
      default:
        r.key = Wire(BytesWritable(RandomPayload(&rng, 10, 20)));
        break;
    }
    r.value = Wire(BytesWritable(RandomPayload(&rng, 8, 8)));
    records.push_back(std::move(r));
  }
  return records;
}

// SIGINT is checked between reps and between configurations: the harness
// stops launching new work, flushes whatever already finished as a partial
// report carrying "interrupted": true, and exits 130.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

bool Interrupted() { return g_interrupted != 0; }

// ---- Timing -----------------------------------------------------------------

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Timing {
  double best = 0;  // fastest pass, seconds
  double mean = 0;
};

template <typename T>
struct Timed : Timing {
  T value{};  // what the fastest pass returned
};

// The one best-of-`reps` loop: times each call of `pass` and keeps the
// fastest call's return value. A SIGINT ends the loop after the pass in
// flight, so an interrupted run still reports every pass it finished.
template <typename Pass>
auto BestOf(int reps, Pass&& pass) {
  if constexpr (std::is_void_v<std::invoke_result_t<Pass&>>) {
    return BestOf(reps, [&pass] {
      pass();
      return true;
    });
  } else {
    Timed<std::invoke_result_t<Pass&>> out;
    double sum = 0;
    int done = 0;
    while (done < reps) {
      const auto start = std::chrono::steady_clock::now();
      auto value = pass();
      const double s = Elapsed(start);
      sum += s;
      if (done++ == 0 || s < out.best) {
        out.best = s;
        out.value = std::move(value);
      }
      if (Interrupted()) break;
    }
    out.mean = sum / done;
    return out;
  }
}

LocalJobResult MustRun(Result<LocalJobResult> job) {
  if (!job.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", job.status().ToString().c_str());
    std::abort();
  }
  return std::move(*job);
}

// Best-of-reps wall time of one stand-alone job; the value is the fastest
// rep's LocalJobResult.
Timed<LocalJobResult> TimeJob(int reps, const JobConf& conf) {
  return BestOf(reps,
                [&conf] { return MustRun(LocalJobRunner::RunStandalone(conf)); });
}

// The output fingerprint is the engine's correctness oracle: runs that must
// produce the same bytes invalidate the whole report when they do not.
void CheckFingerprint(const std::string& name, uint32_t got,
                      const std::string& ref_name, uint32_t want) {
  if (got == want) return;
  std::fprintf(stderr, "FATAL: %s output fingerprint %08x != %s %08x\n",
               name.c_str(), got, ref_name.c_str(), want);
  std::abort();
}

// ---- JSON ---------------------------------------------------------------

// One JSON object whose members keep insertion order. Scalars are rendered
// when added: %.6f doubles, plain integers, quoted strings. A double that
// is absent or not finite is written as null, never as nan/inf.
class JsonObject {
 public:
  // A `one_line` object renders as {"k": v, ...}: the compact table rows.
  explicit JsonObject(bool one_line = false) : one_line_(one_line) {}

  JsonObject& Num(const std::string& key, double v) {
    return Format(key, "%.6f", v);
  }
  JsonObject& Sci(const std::string& key, double v) {
    return Format(key, "%.3e", v);
  }
  // A derived ratio that is null unless `present`.
  JsonObject& Ratio(const std::string& key, bool present, double v) {
    return present ? Num(key, v) : Raw(key, "null");
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Hex(const std::string& key, uint32_t v) {
    return Str(key, StringPrintf("%08x", v));
  }
  JsonObject& Array(const std::string& key, std::vector<JsonObject> items) {
    members_.push_back({key, "", std::move(items), true});
    return *this;
  }
  JsonObject& Append(const JsonObject& other) {
    members_.insert(members_.end(), other.members_.begin(),
                    other.members_.end());
    return *this;
  }

  // The whole document, newline-terminated.
  std::string Render() const { return RenderAt(0) + "\n"; }

 private:
  struct Member {
    std::string key;
    std::string text;  // rendered scalar
    std::vector<JsonObject> items;
    bool array = false;
  };

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  JsonObject& Raw(const std::string& key, std::string text) {
    members_.push_back({key, std::move(text), {}, false});
    return *this;
  }

  JsonObject& Format(const std::string& key, const char* format, double v) {
    return std::isfinite(v) ? Raw(key, StringPrintf(format, v))
                            : Raw(key, "null");
  }

  // Members sit two spaces deeper than their object's brace at `depth`.
  std::string RenderAt(int depth) const {
    const std::string pad(2 * depth + 2, ' ');
    std::string out = "{";
    for (size_t i = 0; i < members_.size(); ++i) {
      const Member& m = members_[i];
      out += one_line_ ? (i > 0 ? ", " : "") : (i > 0 ? ",\n" : "\n") + pad;
      out += Quote(m.key) + ": ";
      if (!m.array) {
        out += m.text;
        continue;
      }
      out += "[\n";
      for (size_t j = 0; j < m.items.size(); ++j) {
        out += pad + "  " + m.items[j].RenderAt(depth + 2) +
               (j + 1 < m.items.size() ? ",\n" : "\n");
      }
      out += pad + "]";
    }
    return out + (one_line_ ? "}" : "\n" + std::string(2 * depth, ' ') + "}");
  }

  bool one_line_;
  std::vector<Member> members_;
};

JsonObject& AddTiming(JsonObject& row, const Timing& t) {
  return row.Num("seconds_best", t.best).Num("seconds_mean", t.mean);
}

// ---- Scenario table plumbing ----------------------------------------------

constexpr char kDefaultScenario[] = "sort-merge";

struct Context;

// One row of the scenario table: --scenario=`name` runs `run`, which writes
// a `schema` report to --out, or to `default_out` when --out is not given.
struct Scenario {
  const char* name;
  const char* default_out;
  const char* schema;
  int (*run)(const Context&);
};

// The parsed command line every scenario reads.
struct Context {
  const Scenario* scenario = nullptr;
  int64_t records = 1000000;
  int merge_segments = 32;
  int sort_threads = 4;
  int reps = 5;
  bool quick = false;
  std::string engine = "current";
  std::string baseline_path;
  std::string out_path;
};

// The keys every report opens with. The default scenario's reports name the
// bare command that made them.
JsonObject Opening(const Context& ctx) {
  std::string generated_by = "tools/run_bench";
  if (std::strcmp(ctx.scenario->name, kDefaultScenario) != 0) {
    generated_by += std::string(" --scenario=") + ctx.scenario->name;
  }
  JsonObject json;
  json.Str("schema", ctx.scenario->schema)
      .Str("generated_by", generated_by)
      .Bool("interrupted", Interrupted());
  return json;
}

// A benchmark report's header: the opening keys and the engine label; then
// the shape of `job`, read from the JobConf that ran, when the report
// describes one job shape; then the scenario's own `shape` keys and reps.
JsonObject Header(const Context& ctx, const JobConf* job,
                  const JsonObject& shape = JsonObject(),
                  bool with_data_type = false) {
  JsonObject json = Opening(ctx);
  json.Str("engine", ctx.engine);
  if (job != nullptr) {
    json.Int("records", job->records_per_map * job->num_maps)
        .Int("maps", job->num_maps)
        .Int("reduces", job->num_reduces);
    if (with_data_type) json.Str("data_type", DataTypeName(job->record.type));
    json.Int("local_threads", job->local_threads);
  }
  json.Append(shape).Int("reps", ctx.reps);
  return json;
}

// Writes the report through a temp file + rename, so a concurrent reader
// (or a crash mid-write) never observes a torn JSON document.
bool WriteJsonAtomic(const std::string& path, const std::string& json) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool synced = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote || !synced) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Common tail of every scenario: "-" streams to stdout, anything else is
// written atomically. Interrupted runs publish their partial report and
// exit 130, the conventional SIGINT status.
int EmitReport(const Context& ctx, const std::string& doc,
               const std::string& note) {
  const std::string& path = ctx.out_path;
  if (path == "-") {
    std::cout << doc;
  } else if (WriteJsonAtomic(path, doc)) {
    std::fprintf(stderr, "wrote %s%s%s\n", path.c_str(),
                 note.empty() ? "" : " ", note.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return Interrupted() ? 130 : 0;
}

// ---- sort-merge -------------------------------------------------------------

// Collect (Append) + Sort of a full buffer, the MapOutputBuffer hot path.
Timing BenchCollectSort(DataType type, int64_t records, int reps,
                        int sort_threads) {
  const int kPartitions = 8;
  const std::vector<BenchRecord> material =
      MakeRecords(type, records, kPartitions, /*seed=*/0x5EED + records);
  KvBuffer buffer(type, kPartitions, 512u << 20);
  std::unique_ptr<ThreadPool> pool;
  if (sort_threads > 1) pool = std::make_unique<ThreadPool>(sort_threads);
  return BestOf(reps, [&] {
    buffer.Clear();
    for (const BenchRecord& r : material) {
      if (!buffer.Append(r.partition, r.key, r.value)) {
        std::fprintf(stderr, "FATAL: bench buffer overflow\n");
        std::abort();
      }
    }
    buffer.Sort(pool.get());
  });
}

// K-way merge of pre-sorted segments, the reduce-side hot path.
Timing BenchMerge(int64_t records, int segments, int reps) {
  // Round-robin the records over `segments` single-partition buffers, then
  // sort each: identical total work for any engine.
  const std::vector<BenchRecord> material = MakeRecords(
      DataType::kBytesWritable, records, /*num_partitions=*/1, 0xACE);
  std::vector<std::unique_ptr<KvBuffer>> buffers;
  std::vector<SpillSegment> spills;
  for (int s = 0; s < segments; ++s) {
    buffers.push_back(std::make_unique<KvBuffer>(DataType::kBytesWritable, 1,
                                                 512u << 20));
  }
  for (size_t i = 0; i < material.size(); ++i) {
    KvBuffer* buffer = buffers[i % static_cast<size_t>(segments)].get();
    if (!buffer->Append(0, material[i].key, material[i].value)) std::abort();
  }
  for (auto& buffer : buffers) {
    buffer->Sort();
    spills.push_back(buffer->ToSpill());
  }
  return BestOf(reps, [&] {
    std::vector<std::unique_ptr<RecordStream>> inputs;
    inputs.reserve(spills.size());
    for (const SpillSegment& spill : spills) {
      inputs.push_back(std::make_unique<SegmentReader>(spill.PartitionData(0)));
    }
    MergeIterator merged(std::move(inputs),
                         ComparatorFor(DataType::kBytesWritable));
    int64_t count = 0;
    size_t key_bytes = 0;
    while (merged.Valid()) {
      key_bytes += merged.key().size();
      ++count;
      merged.Next();
    }
    if (count != records || key_bytes == 0) std::abort();
  });
}

// End-to-end local job: collect -> sort -> spill -> merge -> shuffle ->
// merge -> reduce, through the real functional engine.
Timing BenchEndToEnd(DistributionPattern pattern, int64_t records, int reps) {
  BenchmarkOptions options;
  options.pattern = pattern;
  options.data_type = DataType::kBytesWritable;
  options.key_size = 16;
  options.value_size = 32;
  options.num_maps = 8;
  options.num_reduces = 8;
  options.records_per_map = records / options.num_maps;
  options.local_threads = 4;
  options.sort_threads = 1;  // measure the engine, not extra parallelism
  return BestOf(reps,
                [&] { return MustRun(RunMicroBenchmarkLocally(options)); });
}

// Pulls "seconds_best": <num> out of the kernel object named `name` in a
// previous run's JSON. Returns -1 when absent.
double BaselineSeconds(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  const std::string key = "\"seconds_best\": ";
  const size_t value_at = json.find(key, at);
  if (value_at == std::string::npos) return -1;
  return std::strtod(json.c_str() + value_at + key.size(), nullptr);
}

int RunSortMerge(const Context& ctx) {
  std::string baseline;
  if (!ctx.baseline_path.empty()) {
    std::ifstream in(ctx.baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   ctx.baseline_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    baseline = ss.str();
  }
  const int64_t n = ctx.records;
  const int reps = ctx.reps;
  const std::pair<std::string, std::function<Timing()>> kernels[] = {
      {"collect_sort_text",
       [&] { return BenchCollectSort(DataType::kText, n, reps, 1); }},
      {"collect_sort_bytes",
       [&] { return BenchCollectSort(DataType::kBytesWritable, n, reps, 1); }},
      {"collect_sort_int",
       [&] { return BenchCollectSort(DataType::kIntWritable, n, reps, 1); }},
      {"collect_sort_text_parallel",
       [&] {
         return BenchCollectSort(DataType::kText, n, reps, ctx.sort_threads);
       }},
      {"merge_" + std::to_string(ctx.merge_segments) + "way",
       [&] { return BenchMerge(n, ctx.merge_segments, reps); }},
      {"e2e_mr_avg",
       [&] { return BenchEndToEnd(DistributionPattern::kAverage, n, reps); }},
      {"e2e_mr_skew",
       [&] { return BenchEndToEnd(DistributionPattern::kSkewed, n, reps); }},
  };
  std::vector<JsonObject> rows;
  for (const auto& [name, bench] : kernels) {
    const Timing t = bench();
    const double mrecords_per_sec = static_cast<double>(n) / t.best / 1e6;
    std::fprintf(stderr, "  %-26s best %8.4f s  (%.2f Mrec/s)\n",
                 name.c_str(), t.best, mrecords_per_sec);
    JsonObject row;
    AddTiming(row.Str("name", name).Int("records", n), t)
        .Num("mrecords_per_sec", mrecords_per_sec);
    const double before = BaselineSeconds(baseline, name);
    if (before > 0) {
      row.Num("seconds_before", before).Num("speedup", before / t.best);
    }
    rows.push_back(row);
    if (Interrupted()) break;
  }
  JsonObject json = Header(ctx, nullptr,
                           JsonObject()
                               .Int("records", n)
                               .Int("merge_segments", ctx.merge_segments)
                               .Int("sort_threads", ctx.sort_threads));
  json.Array("kernels", rows);
  return EmitReport(ctx, json.Render(), "");
}

// ---- shuffle-overlap --------------------------------------------------------

// One shuffle-heavy job through the pipelined engine. Every fetched
// partition is charged `fetch_latency_ms` of simulated transfer time —
// the functional engine otherwise moves bytes by pointer, which would
// make the copy phase free. With the full barrier those transfers (and
// the background folds) serialize after the last map commit; with an
// early slow-start they ride inside the map phase on fetcher threads
// that sleep rather than compute, so the win is measurable even on a
// single core.
int RunShuffleOverlap(const Context& ctx) {
  JobConf conf;
  conf.num_maps = 16;
  conf.num_reduces = 4;
  conf.records_per_map = ctx.records / conf.num_maps;
  conf.pattern = DistributionPattern::kAverage;
  conf.record.key_size = 16;
  conf.record.value_size = 32;
  conf.record.num_unique_keys = 1 << 16;
  conf.local_threads = 8;
  conf.sort_threads = 1;
  // A tight fan-in forces real background fold work — that, plus fetch
  // verification, is the shuffle-side labour the pipeline can hide inside
  // the map phase (the final merge by definition needs every input).
  conf.merge_factor = 2;
  conf.fetch_latency_ms = ctx.quick ? 15 : 30;
  conf.seed = 0xBEEF;
  // Barrier first: reduce_slowstart=1.0 reproduces the pre-pipeline wave
  // (all transfers and folds after the last map commit); then the early
  // slow-start lets that work ride inside the map phase.
  const std::pair<const char*, double> runs[] = {
      {"shuffle_overlap_off", 1.0}, {"shuffle_overlap_on", 0.05}};
  std::vector<JsonObject> rows;
  std::vector<double> best;
  for (const auto& [name, slowstart] : runs) {
    conf.reduce_slowstart = slowstart;
    const auto run = TimeJob(ctx.reps, conf);
    const LocalJobResult& job = run.value;
    std::fprintf(stderr,
                 "  %-26s best %8.4f s  (overlap %.0f%%, shuffle wait %.3f s)\n",
                 name, run.best, job.overlap_efficiency * 100,
                 job.shuffle_wait_seconds);
    JsonObject row;
    AddTiming(row.Str("name", name).Num("reduce_slowstart", slowstart), run)
        .Num("map_phase_seconds", job.map_phase_seconds)
        .Num("shuffle_wait_seconds", job.shuffle_wait_seconds)
        .Num("shuffle_merge_seconds", job.shuffle_merge_seconds)
        .Num("reduce_compute_seconds", job.reduce_compute_seconds)
        .Num("overlap_efficiency", job.overlap_efficiency);
    rows.push_back(row);
    best.push_back(run.best);
    if (Interrupted()) break;
  }
  const bool both = best.size() == 2;
  const double speedup = both ? best[0] / best[1] : 0;
  JsonObject json = Header(
      ctx, &conf, JsonObject().Int("fetch_latency_ms", conf.fetch_latency_ms));
  json.Array("kernels", rows).Ratio("speedup", both, speedup);
  return EmitReport(ctx, json.Render(),
                    both ? StringPrintf("(speedup %.2fx)", speedup) : "");
}

// ---- compressed-shuffle -----------------------------------------------------

// CRC32C kernels first: the checked-in artifact carries the >= 4x
// hardware-over-reference evidence alongside the end-to-end numbers. Then
// one shuffle-heavy Text job per codec and simulated shuffle bandwidth.
// The record shape follows the paper's (unique keys == reducer count), so
// sorted spills repeat their keys and a real block codec shrinks the wire
// bytes; at a constrained bandwidth those wire bytes are wall-clock, which
// is exactly the trade mapred.compress.map.output buys on a slow
// interconnect.
int RunCompressedShuffle(const Context& ctx) {
  std::fprintf(stderr, "CRC32C kernels (1 MiB blocks):\n");
  const struct {
    const char* name;
    uint32_t (*crc)(std::string_view);
    bool available;
  } crc_kernels[] = {
      {"crc32c_reference",
       [](std::string_view d) { return Crc32cReference(d); }, true},
      {"crc32c_slicing8",
       [](std::string_view d) { return Crc32cSlicing8(kCrc32cInit, d); },
       true},
      {"crc32c_sse42",
       [](std::string_view d) { return Crc32cHardware(kCrc32cInit, d); },
       Crc32cHardwareAvailable()},
      {"crc32c_dispatched", [](std::string_view d) { return Crc32c(d); },
       true},
  };
  BenchRng rng(0xC4C);
  const std::string block = RandomBytes(&rng, 1 << 20);
  const int iters = ctx.quick ? 64 : 256;
  std::vector<JsonObject> crc_rows;
  std::vector<double> gb_per_sec;
  for (const auto& kernel : crc_kernels) {
    if (!kernel.available) continue;
    uint32_t acc = 0;
    const Timing t = BestOf(ctx.reps, [&] {
      for (int i = 0; i < iters; ++i) acc ^= kernel.crc(block);
    });
    if (acc == 0x5EED5EED) std::abort();  // keep the loop alive
    gb_per_sec.push_back(static_cast<double>(block.size()) * iters / t.best /
                         1e9);
    std::fprintf(stderr, "  %-26s %8.2f GB/s\n", kernel.name,
                 gb_per_sec.back());
    crc_rows.push_back(JsonObject(/*one_line=*/true)
                           .Str("name", kernel.name)
                           .Num("gb_per_sec", gb_per_sec.back()));
    if (Interrupted()) break;
  }
  const double crc_speedup = gb_per_sec.back() / gb_per_sec.front();

  std::fprintf(stderr, "End-to-end shuffle (Text, %lld records):\n",
               static_cast<long long>(ctx.records));
  JobConf conf;
  conf.num_maps = 16;
  conf.num_reduces = 4;
  conf.records_per_map = ctx.records / conf.num_maps;
  conf.pattern = DistributionPattern::kAverage;
  conf.record.type = DataType::kText;
  conf.record.key_size = 48;
  conf.record.value_size = 16;
  conf.record.num_unique_keys = conf.num_reduces;
  conf.local_threads = 8;
  conf.sort_threads = 1;
  conf.fetch_latency_ms = 2;
  conf.seed = 0xC0DEC;
  // Per-flow share of a congested 1 GigE link: ~125 MB/s of node ingress
  // split across the shuffle's concurrent fetch streams. The bandwidth
  // model charges each fetch independently, so concurrent fetchers see
  // the aggregate.
  const double constrained_mbps = 8;
  std::vector<JsonObject> rows;
  std::vector<double> constrained;  // none/lz4/deflate best seconds
  for (double bandwidth : {constrained_mbps, 0.0}) {
    for (MapOutputCodec codec : {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                                 MapOutputCodec::kDeflate}) {
      if (Interrupted()) break;
      conf.map_output_codec = codec;
      conf.fetch_bandwidth_mbps = bandwidth;
      const std::string name =
          std::string("shuffle_") + MapOutputCodecName(codec) +
          (bandwidth > 0 ? "_bw" + std::to_string(static_cast<int>(bandwidth))
                         : "_bwinf");
      const auto run = TimeJob(ctx.reps, conf);
      const LocalJobResult& job = run.value;
      std::fprintf(stderr,
                   "  %-26s best %8.4f s  (ratio %.3f, %lld wire bytes)\n",
                   name.c_str(), run.best, job.map_output_compression_ratio,
                   static_cast<long long>(job.map_output_wire_bytes));
      JsonObject row;
      row.Str("name", name)
          .Str("codec", MapOutputCodecName(codec))
          .Num("fetch_bandwidth_mbps", bandwidth);
      AddTiming(row, run)
          .Int("map_output_bytes", job.map_output_bytes)
          .Int("wire_bytes", job.map_output_wire_bytes)
          .Num("compression_ratio", job.map_output_compression_ratio)
          .Num("shuffle_wait_seconds", job.shuffle_wait_seconds);
      rows.push_back(row);
      if (bandwidth > 0) constrained.push_back(run.best);
    }
  }
  const size_t n = constrained.size();
  const double lz4_speedup = n >= 2 ? constrained[0] / constrained[1] : 0;
  const double deflate_speedup = n >= 3 ? constrained[0] / constrained[2] : 0;
  JsonObject json = Header(
      ctx, &conf, JsonObject().Num("constrained_bandwidth_mbps", constrained_mbps),
      /*with_data_type=*/true);
  json.Str("crc32c_impl", Crc32cImplName())
      .Array("crc_kernels", crc_rows)
      .Num("crc_dispatched_speedup", crc_speedup)
      .Array("kernels", rows)
      .Ratio("lz4_speedup_constrained", n >= 2, lz4_speedup)
      .Ratio("deflate_speedup_constrained", n >= 3, deflate_speedup);
  return EmitReport(ctx, json.Render(),
                    n >= 3 ? StringPrintf("(crc %.2fx, lz4 %.2fx @ %.0f MB/s)",
                                          crc_speedup, lz4_speedup,
                                          constrained_mbps)
                           : "");
}

// ---- disk-spill -------------------------------------------------------------

// One shuffle-heavy job per spill-engine configuration. A tiny per-map
// budget forces every sealed spill (and the final output) onto disk, so
// the job's data plane runs through extent writes, block CRC verification,
// and — in the cached configuration — the ARC block cache that write-time
// scrubbing warms.
int RunDiskSpill(const Context& ctx) {
  JobConf base;
  base.num_maps = 16;
  base.num_reduces = 4;
  base.records_per_map = ctx.records / base.num_maps;
  base.pattern = DistributionPattern::kAverage;
  base.record.key_size = 16;
  base.record.value_size = 32;
  base.record.num_unique_keys = 1 << 16;
  base.local_threads = 8;
  base.sort_threads = 1;
  // Small sort buffer => several spills per map, the regime the disk
  // engine exists for.
  base.io_sort_bytes = 256 << 10;
  base.seed = 0xD15C;
  std::fprintf(stderr, "Disk spill engine (%lld records, %d maps):\n",
               static_cast<long long>(ctx.records), base.num_maps);
  const struct {
    const char* name;
    bool engine_on;
    int64_t cache_bytes;
  } configs[] = {
      {"in_memory", false, 0},
      {"spilled", true, 0},
      {"spilled_cached", true, 64LL << 20},
  };
  std::vector<JsonObject> rows;
  std::vector<double> best;
  int64_t map_output_bytes = -1;
  for (const auto& c : configs) {
    JobConf conf = base;
    if (c.engine_on) {
      conf.spill_budget_bytes = 0;  // everything sealed goes to disk
      conf.spill_cache_bytes = c.cache_bytes;
      conf.spill_scrub = true;
    }
    const auto run = TimeJob(ctx.reps, conf);
    const LocalJobResult& job = run.value;
    if (map_output_bytes < 0) map_output_bytes = job.map_output_bytes;
    if (job.map_output_bytes != map_output_bytes) {
      std::fprintf(stderr,
                   "FATAL: disk-backed runs produced different map output\n");
      std::abort();
    }
    std::fprintf(stderr,
                 "  %-26s best %8.4f s  (%lld extent bytes, cache %.0f%%)\n",
                 c.name, run.best, static_cast<long long>(job.spilled_bytes),
                 job.spill_cache_hit_rate * 100);
    JsonObject row;
    AddTiming(row.Str("name", c.name), run)
        .Num("map_phase_seconds", job.map_phase_seconds)
        .Num("shuffle_merge_seconds", job.shuffle_merge_seconds)
        .Num("reduce_compute_seconds", job.reduce_compute_seconds)
        .Int("map_output_bytes", job.map_output_bytes)
        .Int("spilled_bytes", job.spilled_bytes)
        .Int("spill_extents", job.spill_extents)
        .Int("cache_hits", job.spill_cache_hits)
        .Int("cache_misses", job.spill_cache_misses)
        .Num("cache_hit_rate", job.spill_cache_hit_rate)
        .Int("scrubbed_blocks", job.spill_scrubbed_blocks);
    rows.push_back(row);
    best.push_back(run.best);
    if (Interrupted()) break;
  }
  const bool complete = best.size() == std::size(configs);
  const double overhead = best.size() >= 2 ? best[1] / best[0] : 0;
  const double cache_speedup = complete ? best[1] / best[2] : 0;
  JsonObject json =
      Header(ctx, &base, JsonObject().Int("io_sort_bytes", base.io_sort_bytes));
  json.Array("kernels", rows)
      .Ratio("spill_overhead", best.size() >= 2, overhead)
      .Ratio("cache_speedup_over_uncached", complete, cache_speedup);
  return EmitReport(ctx, json.Render(),
                    complete ? StringPrintf("(spill overhead %.2fx, cache %.2fx)",
                                            overhead, cache_speedup)
                             : "");
}

// ---- crash-recovery ---------------------------------------------------------

// Measures what the job journal buys after a mid-job crash. T_full is an
// uninterrupted journaled run — the cost of restarting from scratch. The
// same job is then crashed in-process right after half its map commits
// (crash_at:map_commit) and resumed from the journal for T_resume; the
// committed half of the maps is re-adopted from durable extents instead
// of re-running. work_saved = 1 - T_resume / T_full is the fraction of
// the restart cost the resume avoided, and every resumed run's output
// fingerprint must match the uninterrupted run's bit for bit.
int RunCrashRecovery(const Context& ctx) {
  char dir_template[] = "/tmp/mrmb-crash-bench-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "cannot create bench scratch dir\n");
    return 1;
  }
  const std::string scratch = dir_template;
  JobConf base;
  base.num_maps = 16;
  base.num_reduces = 4;
  base.records_per_map = ctx.records / base.num_maps;
  base.pattern = DistributionPattern::kAverage;
  base.record.key_size = 16;
  base.record.value_size = 32;
  base.record.num_unique_keys = 1 << 16;
  base.local_threads = 8;
  base.sort_threads = 1;
  base.seed = 0x5AFE;
  base.job_journal = true;
  std::fprintf(stderr, "Crash + resume-from-journal (%lld records, %d maps):\n",
               static_cast<long long>(ctx.records), base.num_maps);
  // Rep r runs in scratch/rep<r>: "full" holds the uninterrupted job, "job"
  // the job that crashes and is then resumed.
  auto rep_dir = [&scratch](int rep, const char* job) {
    return scratch + "/rep" + std::to_string(rep) + "/" + job;
  };
  int rep = 0;
  JobConf full = base;
  const auto full_run = BestOf(ctx.reps, [&] {
    full.spill_dir = rep_dir(rep++, "full");
    return MustRun(LocalJobRunner::RunStandalone(full));
  });
  // Crash after the (num_maps/2)-th map commit (0-based occurrence).
  const std::string crash_at =
      "map_commit@" + std::to_string(base.num_maps / 2 - 1);
  auto plan = LocalFaultPlan::Parse("crash_at:" + crash_at);
  if (!plan.ok()) std::abort();
  JobConf crash = base;
  crash.local_fault_plan = *plan;
  rep = 0;
  const Timing crash_run = BestOf(ctx.reps, [&] {
    crash.spill_dir = rep_dir(rep++, "job");
    if (LocalJobRunner::RunStandalone(crash).ok()) {
      std::fprintf(stderr, "FATAL: crash point did not fire\n");
      std::abort();
    }
  });
  // Resume each crashed job from its journal; SIGINT stops these reps too,
  // so only directories a finished crash rep left are ever resumed.
  JobConf resume = base;
  resume.resume = true;
  rep = 0;
  const auto resume_run = BestOf(ctx.reps, [&] {
    resume.spill_dir = rep_dir(rep++, "job");
    LocalJobResult job = MustRun(LocalJobRunner::RunStandalone(resume));
    CheckFingerprint("resumed", job.output_fingerprint, "uninterrupted",
                     full_run.value.output_fingerprint);
    return job;
  });
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  const LocalJobResult& resumed = resume_run.value;
  std::fprintf(stderr,
               "  full %.4f s, crash %.4f s, resume %.4f s "
               "(%lld/%d maps adopted)\n",
               full_run.best, crash_run.best, resume_run.best,
               static_cast<long long>(resumed.maps_adopted), base.num_maps);
  JsonObject restart, crashed, resumed_row;
  AddTiming(restart.Str("name", "restart_from_scratch"), full_run)
      .Int("map_attempts", full_run.value.map_attempts);
  crashed.Str("name", "crashed_run").Num("seconds_best", crash_run.best);
  AddTiming(resumed_row.Str("name", "resume_from_journal"), resume_run)
      .Int("map_attempts", resumed.map_attempts)
      .Int("maps_adopted", resumed.maps_adopted)
      .Int("reduces_adopted", resumed.reduces_adopted)
      .Int("journal_records_replayed", resumed.journal_records_replayed);
  const double work_saved = 1.0 - resume_run.best / full_run.best;
  JsonObject json = Header(ctx, &base);
  json.Str("crash_at", crash_at)
      .Hex("output_fingerprint", resumed.output_fingerprint)
      .Array("kernels", {restart, crashed, resumed_row})
      .Num("work_saved_fraction", work_saved)
      .Num("resume_speedup_over_restart", full_run.best / resume_run.best);
  return EmitReport(ctx, json.Render(),
                    StringPrintf("(work saved %.0f%%, %lld/%d maps adopted)",
                                 work_saved * 100,
                                 static_cast<long long>(resumed.maps_adopted),
                                 base.num_maps));
}

// ---- socket-shuffle ---------------------------------------------------------

// One shuffle-heavy job per data plane. Every configuration must produce
// the same output fingerprint — the tcp transport's whole correctness
// claim — so the scenario aborts on the first mismatch.
int RunSocketShuffle(const Context& ctx) {
  JobConf conf;
  conf.num_maps = 16;
  conf.num_reduces = 4;
  conf.records_per_map = ctx.records / conf.num_maps;
  conf.pattern = DistributionPattern::kAverage;
  conf.record.key_size = 48;
  conf.record.value_size = 16;
  conf.record.num_unique_keys = conf.num_reduces;
  conf.local_threads = 8;
  conf.sort_threads = 1;
  conf.seed = 0x50CE7;
  std::fprintf(stderr,
               "Socket shuffle: inproc vs tcp (%lld records, %d maps):\n",
               static_cast<long long>(ctx.records), conf.num_maps);
  const struct {
    const char* name;
    ShuffleTransport transport;
    int streams;
    MapOutputCodec codec;
  } configs[] = {
      {"inproc_none", ShuffleTransport::kInproc, 1, MapOutputCodec::kNone},
      {"inproc_lz4", ShuffleTransport::kInproc, 1, MapOutputCodec::kLz4},
      {"tcp_s1_none", ShuffleTransport::kTcp, 1, MapOutputCodec::kNone},
      {"tcp_s2_none", ShuffleTransport::kTcp, 2, MapOutputCodec::kNone},
      {"tcp_s4_none", ShuffleTransport::kTcp, 4, MapOutputCodec::kNone},
      {"tcp_s1_lz4", ShuffleTransport::kTcp, 1, MapOutputCodec::kLz4},
      {"tcp_s2_lz4", ShuffleTransport::kTcp, 2, MapOutputCodec::kLz4},
      {"tcp_s4_lz4", ShuffleTransport::kTcp, 4, MapOutputCodec::kLz4},
  };
  std::vector<JsonObject> rows;
  std::vector<double> best;
  uint32_t fingerprint = 0;
  for (const auto& c : configs) {
    conf.shuffle_transport = c.transport;
    conf.fetch_parallel_streams = c.streams;
    conf.map_output_codec = c.codec;
    const auto run = TimeJob(ctx.reps, conf);
    const LocalJobResult& job = run.value;
    if (best.empty()) fingerprint = job.output_fingerprint;
    CheckFingerprint(c.name, job.output_fingerprint, configs[0].name,
                     fingerprint);
    std::fprintf(stderr, "  %-26s best %8.4f s  (fingerprint %08x)\n", c.name,
                 run.best, job.output_fingerprint);
    JsonObject row;
    AddTiming(row.Str("name", c.name), run)
        .Int("fetch_rpcs", job.transport_fetch_rpcs)
        .Int("retransmits", job.transport_retransmits)
        .Int("wire_bytes", job.transport_wire_bytes)
        .Int("ram_serves", job.transport_ram_serves)
        .Int("file_serves", job.transport_file_serves)
        .Num("fetch_mean_ms", job.transport_fetch_mean_ms)
        .Num("fetch_p99_ms", job.transport_fetch_p99_ms);
    rows.push_back(row);
    best.push_back(run.best);
    if (Interrupted()) break;
  }
  const bool complete = best.size() == std::size(configs);
  const double tcp_over_inproc = complete ? best[4] / best[0] : 0;
  if (tcp_over_inproc > 1.25) {
    std::fprintf(stderr,
                 "WARNING: multi-stream tcp is %.2fx of inproc "
                 "(target <= 1.25x)\n",
                 tcp_over_inproc);
  }
  JsonObject json = Header(ctx, &conf);
  json.Hex("output_fingerprint", fingerprint)
      .Array("kernels", rows)
      .Ratio("tcp_s4_over_inproc", complete, tcp_over_inproc);
  return EmitReport(
      ctx, json.Render(),
      complete ? StringPrintf("(tcp x4 streams %.2fx of inproc)", tcp_over_inproc)
               : "");
}

// ---- pipelined-shuffle ------------------------------------------------------

// One small-partition shuffle-heavy job over the tcp data plane per wire
// protocol / reactor count / in-flight window. reduce_slowstart is pinned
// to 1.0 (full map barrier) so every map stream is already queued when a
// reduce launches: batch sizes — and therefore the RPC amortization this
// scenario exists to measure — are deterministic instead of riding the
// slow-start trickle. The headline gate: v2 at full window must cut
// request round trips by at least 4x at equal stream count, or the run
// exits 3 (the CI perf-smoke gate).
int RunPipelinedShuffle(const Context& ctx) {
  JobConf conf;
  conf.pattern = DistributionPattern::kAverage;
  conf.record.key_size = 16;
  conf.record.value_size = 32;
  conf.local_threads = 4;
  conf.sort_threads = 1;
  conf.shuffle_transport = ShuffleTransport::kTcp;
  conf.fetch_parallel_streams = 4;
  conf.reduce_slowstart = 1.0;
  conf.seed = 0xB47C;
  // maps x reduces grid with per-partition payloads spanning the
  // latency-bound regime the paper measures (~1 KiB) up to the
  // bandwidth-bound end (~1 MiB). 16 maps x 8 reduces at ~3.5 KiB
  // partitions is the headline config the RPC-amortization gate runs
  // on; the wider/larger configs only run in full mode.
  const struct {
    const char* name;
    int maps;
    int reduces;
    int64_t records_per_map;  // partition ~= rpm/reduces * 52 B framed
    bool quick_too;
  } grids[] = {
      {"16x8_4k", 16, 8, 512, true},      // ~3.5 KiB partitions
      {"64x16_1k", 64, 16, 320, false},   // ~1 KiB partitions
      {"16x8_1m", 16, 8, 163840, false},  // ~1 MiB partitions
  };
  // v1 is one request per partition; the v2 rows vary the reactor count and
  // the in-flight window at the same four parallel streams, so every delta
  // is protocol, not parallelism.
  const struct {
    const char* name;
    int protocol;
    int reactors;
    int window;
  } row_specs[] = {
      {"v1_r1", 1, 1, 1},        {"v2_r1_w1", 2, 1, 1},
      {"v2_r1_wmax", 2, 1, 32},  {"v2_r4_w1", 2, 4, 1},
      {"v2_r4_wmax", 2, 4, 32},
  };
  // wall - map_phase: the shuffle + reduce tail the batched protocol
  // attacks (the map phase is identical across rows).
  auto tail = [](const LocalJobResult& job) {
    return std::max(0.0, job.wall_seconds - job.map_phase_seconds);
  };
  std::vector<JsonObject> grid_rows;
  double rpc_cut = 0, tail_speedup = 0;
  bool gated = false;
  for (const auto& g : grids) {
    if (ctx.quick && !g.quick_too) continue;
    std::fprintf(stderr, "grid %s (%d maps x %d reduces):\n", g.name, g.maps,
                 g.reduces);
    conf.num_maps = g.maps;
    conf.num_reduces = g.reduces;
    conf.records_per_map = g.records_per_map;
    conf.record.num_unique_keys = g.reduces * 4;
    std::vector<JsonObject> rows;
    std::vector<LocalJobResult> jobs;
    for (const auto& r : row_specs) {
      conf.shuffle_protocol_version = r.protocol;
      conf.shuffle_server_reactors = r.reactors;
      conf.fetch_window_init = r.window;
      conf.fetch_window_max = r.window;
      const std::string name = std::string(g.name) + "/" + r.name;
      const auto run = TimeJob(ctx.reps, conf);
      const LocalJobResult& job = run.value;
      // The correctness claim: the batched protocol, reactor sharding, and
      // window setting never change the job's output bytes.
      if (!jobs.empty()) {
        CheckFingerprint(name, job.output_fingerprint,
                         std::string(g.name) + "/" + row_specs[0].name,
                         jobs[0].output_fingerprint);
      }
      std::fprintf(stderr,
                   "  %-22s best %8.4f s  tail %7.4f s  %5lld rpcs / %5lld "
                   "partitions  (fingerprint %08x)\n",
                   name.c_str(), run.best, tail(job),
                   static_cast<long long>(job.transport_fetch_rpcs),
                   static_cast<long long>(job.transport_fetched_partitions),
                   job.output_fingerprint);
      JsonObject row;
      AddTiming(row.Str("name", name), run)
          .Num("tail_seconds_best", tail(job))
          .Int("fetch_rpcs", job.transport_fetch_rpcs)
          .Int("fetched_partitions", job.transport_fetched_partitions)
          .Int("batches", job.transport_batches)
          .Int("retransmits", job.transport_retransmits)
          .Int("wire_bytes", job.transport_wire_bytes)
          .Num("pool_hit_rate", job.transport_pool_hit_rate)
          .Int("window_peak", job.transport_window_peak)
          .Num("fetch_mean_ms", job.transport_fetch_mean_ms)
          .Num("fetch_p99_ms", job.transport_fetch_p99_ms);
      rows.push_back(row);
      jobs.push_back(job);
      if (Interrupted()) break;
    }
    // Headline gate on the small-partition config: v2 at full window
    // (v2_r1_wmax) must amortize fetch round trips >= 4x over v1 at equal
    // stream count, and should cut the post-map shuffle tail >= 1.3x.
    if (&g == &grids[0] && jobs.size() == std::size(row_specs)) {
      const LocalJobResult& v1 = jobs[0];
      const LocalJobResult& v2 = jobs[2];
      if (v2.transport_fetch_rpcs > 0) {
        rpc_cut = static_cast<double>(v1.transport_fetch_rpcs) /
                  static_cast<double>(v2.transport_fetch_rpcs);
      }
      if (tail(v2) > 0) tail_speedup = tail(v1) / tail(v2);
      gated = true;
    }
    JsonObject grid;
    grid.Str("grid", g.name)
        .Int("maps", g.maps)
        .Int("reduces", g.reduces)
        .Int("records_per_map", g.records_per_map)
        .Hex("output_fingerprint", jobs[0].output_fingerprint)
        .Array("rows", rows);
    grid_rows.push_back(grid);
    if (Interrupted()) break;
  }
  JsonObject json =
      Header(ctx, nullptr,
             JsonObject()
                 .Int("local_threads", conf.local_threads)
                 .Int("parallel_streams", conf.fetch_parallel_streams)
                 .Num("reduce_slowstart", conf.reduce_slowstart));
  json.Array("grids", grid_rows)
      .Ratio("rpc_cut", rpc_cut > 0, rpc_cut)
      .Ratio("tail_speedup", tail_speedup > 0, tail_speedup);
  if (gated && tail_speedup > 0 && tail_speedup < 1.3) {
    std::fprintf(stderr,
                 "WARNING: shuffle tail speedup %.2fx misses the 1.3x target\n",
                 tail_speedup);
  }
  const int rc = EmitReport(
      ctx, json.Render(),
      gated ? StringPrintf("(rpc cut %.1fx, tail speedup %.2fx)", rpc_cut,
                           tail_speedup)
            : "");
  if (rc != 0) return rc;
  // The CI perf-smoke gate: batching exists to amortize request round
  // trips, so a v2 run that fails to cut them 4x is a regression.
  if (gated && rpc_cut < 4.0) {
    std::fprintf(stderr, "FATAL: rpc cut %.1fx misses the 4x floor\n",
                 rpc_cut);
    return 3;
  }
  return 0;
}

// ---- calibrate --------------------------------------------------------------

constexpr uint64_t kCalibrationDigest = 0xCA11B8;

// A live loopback server publishing one sealed single-partition segment of
// `payload` random bytes as map 0. Fetches pull the exact sealed bytes
// through the real serve path, so a sweep times the transport and nothing
// else.
std::unique_ptr<ShuffleTransportServer> SyntheticServer(int64_t payload,
                                                        uint64_t seed,
                                                        int reactors = 1) {
  ShuffleTransportServer::Options options;
  options.job_digest = kCalibrationDigest;
  options.reactors = reactors;
  auto server = ShuffleTransportServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", server.status().ToString().c_str());
    std::abort();
  }
  auto segment = std::make_shared<SpillSegment>();
  BenchRng rng(seed);
  segment->data = RandomBytes(&rng, static_cast<size_t>(payload));
  SpillSegment::PartitionRange range;
  range.offset = 0;
  range.length = payload;
  range.records = 1;
  segment->partitions.push_back(range);
  SealSegment(segment.get());
  (*server)->Publish(/*map=*/0, /*generation=*/0, segment, nullptr);
  return std::move(*server);
}

struct CalibratePoint {
  int64_t payload_bytes = 0;
  int streams = 1;
  int fetches = 0;
  double wall_ms = 0;
  double per_fetch_ms = 0;  // wall * streams / fetches
  double predicted_ms = 0;  // PredictShuffleMs, filled after the fit
  double error_pct = 0;
};

// Measures one (payload size, stream count) sweep point against a live
// loopback server: `fetches` transfers of its synthetic segment, issued by
// `streams` concurrent fetcher threads over one persistent connection
// pool. One untimed warm-up pass populates the pool and the page cache,
// then the best of `reps` timed passes wins — scheduling noise only ever
// makes a pass slower.
CalibratePoint MeasureCalibratePoint(ShuffleTransportServer* server,
                                     int64_t payload_bytes, int streams,
                                     int fetches, int reps) {
  ShuffleTransportClient::Options copts;
  copts.job_digest = kCalibrationDigest;
  copts.port = server->port();
  copts.parallel_streams = streams;
  ShuffleTransportClient client(copts);

  CalibratePoint point;
  point.payload_bytes = payload_bytes;
  point.streams = streams;
  point.fetches = fetches;
  std::atomic<bool> failed{false};
  auto drain = [&](int count) {
    std::atomic<int> next{0};
    std::vector<std::thread> fetchers;
    fetchers.reserve(streams);
    for (int t = 0; t < streams; ++t) {
      fetchers.emplace_back([&] {
        while (true) {
          const int i = next.fetch_add(1);
          if (i >= count) return;
          auto fetched = client.Fetch(/*map=*/0, /*partition=*/0,
                                      /*generation=*/0);
          if (!fetched.ok() || fetched->status != FetchStatus::kOk ||
              static_cast<int64_t>(fetched->body.size()) != payload_bytes) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& t : fetchers) t.join();
  };
  drain(std::min(fetches, 4 * streams));  // warm-up
  point.wall_ms = BestOf(reps, [&] { drain(fetches); }).best * 1000.0;
  if (failed.load()) {
    std::fprintf(stderr, "FATAL: calibration fetch failed\n");
    std::abort();
  }
  point.per_fetch_ms = point.wall_ms * streams / fetches;
  return point;
}

struct BatchPoint {
  int64_t payload_bytes = 0;  // per entry
  int batch = 0;              // wants per FetchBatch call (window pinned)
  int calls = 0;              // timed FetchBatch calls per pass
  double wall_ms = 0;
  double per_batch_ms = 0;  // fastest single call
  double predicted_ms = 0;  // PredictBatchedShuffleMs, filled after the fit
  double error_pct = 0;
};

// Measures one (payload, batch size) point of the batched (protocol v2)
// path: `calls` FetchBatch round trips of `batch` identical wants over one
// persistent connection, window pinned to the batch size so every call is
// exactly one request RPC followed by `batch` streamed entries. Bodies are
// recycled into the client's buffer pool so allocation churn never rides
// the timing. Same warm-up / best-of-reps discipline as the v1 sweep.
BatchPoint MeasureBatchPoint(ShuffleTransportServer* server,
                             int64_t payload_bytes, int batch, int calls,
                             int reps) {
  ShuffleTransportClient::Options copts;
  copts.job_digest = kCalibrationDigest;
  copts.port = server->port();
  copts.parallel_streams = 1;
  copts.protocol_version = 2;
  copts.window_init = batch;
  copts.window_max = batch;
  ShuffleTransportClient client(copts);

  BatchPoint point;
  point.payload_bytes = payload_bytes;
  point.batch = batch;
  point.calls = calls;
  std::vector<ShuffleFetchWant> wants(static_cast<size_t>(batch));
  for (ShuffleFetchWant& w : wants) {
    w.map = 0;
    w.partition = 0;
    w.generation = 0;
  }
  bool failed = false;
  double best_call_ms = 0;
  auto drain = [&](int count, bool timed) {
    for (int i = 0; i < count && !failed; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      auto results = client.FetchBatch(wants);
      const double call_ms = Elapsed(t0) * 1000.0;
      for (ShuffleFetchResult& r : results) {
        if (!r.transport_ok || r.status != FetchStatus::kOk ||
            static_cast<int64_t>(r.body.size()) != payload_bytes) {
          failed = true;
          break;
        }
        client.RecycleBuffer(std::move(r.body));
      }
      if (timed && !failed && (best_call_ms == 0 || call_ms < best_call_ms)) {
        best_call_ms = call_ms;
      }
    }
  };
  drain(4, /*timed=*/false);  // warm-up: connection dial + buffer pool fill
  point.wall_ms =
      BestOf(reps, [&] { drain(calls, /*timed=*/true); }).best * 1000.0;
  if (failed) {
    std::fprintf(stderr, "FATAL: batched calibration fetch failed\n");
    std::abort();
  }
  // The fitted statistic is the *minimum* per-call time, not wall/calls:
  // the model describes an undisturbed round trip, and on a shared box a
  // single descheduling spike inside one call would otherwise poison the
  // whole point.
  point.per_batch_ms = best_call_ms;
  return point;
}

// Sweeps the live loopback transport over payload size x stream count,
// least-squares fits fetch_seconds = a + bytes/B on the single-stream
// points and cross-validates the held-out points; then sweeps the batched
// (protocol v2) path over payload x batch size, fits
// batch_ms = a + n*c + bytes/B (per-RPC setup vs per-entry dispatch vs
// wire) and cross-validates held-out batch sizes; then probes 4-reactor vs
// 1-reactor throughput under concurrent load. The report is an
// mrmb-calibration/1 document (see sim/calibration.h) that run_bench and
// the simulator front-ends reload.
int RunCalibrate(const Context& ctx) {
  // Payloads span the range real partition transfers occupy and stay at
  // or under 256 KiB: past that a single response no longer fits the
  // loopback socket buffers, the transfer degenerates into an epoll
  // ping-pong, and throughput bends away from the linear model. The fit
  // uses the alternating single-stream points (16K / 64K / 256K); the
  // skipped sizes are held out for cross-validation.
  const int64_t payloads[] = {16 << 10, 32 << 10, 64 << 10, 128 << 10,
                              256 << 10};
  const int stream_counts[] = {1, 2, 4};
  std::vector<CalibratePoint> points;
  for (size_t pi = 0; pi < std::size(payloads); ++pi) {
    const int64_t payload = payloads[pi];
    auto server = SyntheticServer(payload, 0xCA11 + pi);
    // Enough fetches per point to amortize thread startup; sized so the
    // largest payload still finishes in a few hundred ms.
    const int fetches = static_cast<int>(std::max<int64_t>(
        48, (ctx.quick ? (16 << 20) : (64 << 20)) / payload));
    for (int streams : stream_counts) {
      CalibratePoint point = MeasureCalibratePoint(server.get(), payload,
                                                   streams, fetches, ctx.reps);
      std::fprintf(stderr,
                   "  payload %7lld B x %d streams: %8.3f ms wall, "
                   "%.4f ms/fetch\n",
                   static_cast<long long>(payload), streams, point.wall_ms,
                   point.per_fetch_ms);
      points.push_back(point);
      if (Interrupted()) break;
    }
    if (Interrupted()) break;
  }
  // Least-squares fit t = a + s/B over the alternating single-stream
  // points, weighted by 1/t^2 so the fit minimizes *relative* error —
  // otherwise the largest payload dominates and the small-fetch points
  // (where the setup constant lives) contribute nothing. The skipped
  // single-stream sizes are held out and used for cross-validation.
  auto in_fit = [&payloads](const CalibratePoint& p) {
    if (p.streams != 1) return false;
    for (size_t i = 0; i < std::size(payloads); i += 2) {
      if (p.payload_bytes == payloads[i]) return true;
    }
    return false;
  };
  double w_sum = 0, ws_sum = 0, wss_sum = 0, wt_sum = 0, wst_sum = 0;
  int n = 0;
  for (const CalibratePoint& p : points) {
    if (!in_fit(p)) continue;
    const double s = static_cast<double>(p.payload_bytes);
    const double t = p.per_fetch_ms;
    const double w = 1.0 / (t * t);
    w_sum += w;
    ws_sum += w * s;
    wss_sum += w * s * s;
    wt_sum += w * t;
    wst_sum += w * s * t;
    ++n;
  }
  if (n < 2) {
    std::fprintf(stderr, "FATAL: not enough sweep points to fit\n");
    std::abort();
  }
  const double det = w_sum * wss_sum - ws_sum * ws_sum;
  const double slope = (w_sum * wst_sum - ws_sum * wt_sum) / det;
  ShuffleCalibration cal;
  cal.fetch_setup_ms = (wt_sum - slope * ws_sum) / w_sum;
  if (cal.fetch_setup_ms < 0) cal.fetch_setup_ms = 0;  // syscall floor
  cal.loopback_bandwidth_mbps = 1.0 / (slope * 1024.0 * 1024.0 / 1000.0);
  cal.samples = static_cast<int64_t>(points.size());
  // Sanity bounds: a loopback fetch costs well under 50 ms of setup and
  // moves well over 50 MB/s, or the measurement is garbage.
  if (cal.fetch_setup_ms > 50 || cal.loopback_bandwidth_mbps < 50) {
    std::fprintf(stderr, "FATAL: implausible fit (a=%.3f ms, B=%.0f MB/s)\n",
                 cal.fetch_setup_ms, cal.loopback_bandwidth_mbps);
    std::abort();
  }
  // Cross-validate: the held-out single-stream sizes (never seen by the
  // fit) gate the calibration — predictions must land within 15% of the
  // measurement. Multi-stream points are predicted too (shared-wire
  // model) and reported, but only as stream-scaling observations: a
  // single-threaded epoll server juggling N loopback connections has
  // scheduling structure no two-constant model captures.
  double sq_err = 0;
  int sq_n = 0;
  double worst_holdout_pct = 0;
  for (CalibratePoint& p : points) {
    p.predicted_ms =
        cal.PredictShuffleMs(p.payload_bytes * p.fetches, p.fetches, p.streams);
    p.error_pct = (p.predicted_ms - p.wall_ms) / p.wall_ms * 100.0;
    if (p.streams == 1) {
      sq_err += p.error_pct * p.error_pct;
      ++sq_n;
      if (!in_fit(p) && std::abs(p.error_pct) > worst_holdout_pct) {
        worst_holdout_pct = std::abs(p.error_pct);
      }
    }
  }
  cal.fit_residual_pct = std::sqrt(sq_err / sq_n);
  if (worst_holdout_pct > 15.0) {
    std::fprintf(stderr,
                 "WARNING: held-out prediction error %.1f%% exceeds the "
                 "15%% target\n",
                 worst_holdout_pct);
  }
  // ---- Batched (protocol v2) sweep ----------------------------------
  // Same live-server discipline, but through FetchBatch with the window
  // pinned to the batch size, so every call is exactly one request RPC
  // followed by `n` streamed entries. Three-constant fit
  //
  //   per_batch_ms = a + n*c + n*payload/B
  //
  // (a = per-batch-RPC round trip — what pipelining amortizes, c =
  // per-entry header/dispatch, B = streamed-response bandwidth) by
  // 1/t^2-weighted least squares over batch sizes {1,4,16,64} x all
  // payloads; sizes {2,8,32} are held out for cross-validation.
  const int64_t batch_payloads[] = {1 << 10, 4 << 10, 16 << 10};
  const int batch_sizes[] = {1, 2, 4, 8, 16, 32, 64};
  std::vector<BatchPoint> batch_points;
  double worst_batch_holdout_pct = 0;
  for (size_t pi = 0; pi < std::size(batch_payloads) && !Interrupted();
       ++pi) {
    const int64_t payload = batch_payloads[pi];
    auto server = SyntheticServer(payload, 0xBA7C + pi);
    for (int batch : batch_sizes) {
      // Regime cap, same spirit as the v1 sweep's 256 KiB response cap:
      // the batched model describes the latency-bound small-partition
      // regime batching exists for. Past ~64 KiB of streamed response
      // per round trip the loopback socket buffers fill, the server
      // starts taking EPOLLOUT round trips mid-batch, and measured
      // times bend 20-40% away from the linear model (repeatably, not
      // noise) — so bigger in-flight volumes are out of scope for the
      // fit rather than silently poisoning it.
      if (static_cast<int64_t>(batch) * payload > (64 << 10)) continue;
      // Constant per-point byte volume, so every batch size is timed
      // over the same amount of wire work.
      const int calls = static_cast<int>(std::max<int64_t>(
          32, (ctx.quick ? (8 << 20) : (32 << 20)) / (payload * batch)));
      BatchPoint point =
          MeasureBatchPoint(server.get(), payload, batch, calls, ctx.reps);
      std::fprintf(stderr,
                   "  payload %7lld B x batch %2d: %8.3f ms wall, "
                   "%.4f ms/batch\n",
                   static_cast<long long>(payload), batch, point.wall_ms,
                   point.per_batch_ms);
      batch_points.push_back(point);
      if (Interrupted()) break;
    }
  }
  auto in_batch_fit = [](const BatchPoint& p) {
    return p.batch == 1 || p.batch == 4 || p.batch == 16 || p.batch == 64;
  };
  double bm[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  double bv[3] = {0, 0, 0};
  int bn = 0;
  for (const BatchPoint& p : batch_points) {
    if (!in_batch_fit(p)) continue;
    const double x[3] = {1.0, static_cast<double>(p.batch),
                         static_cast<double>(p.batch) *
                             static_cast<double>(p.payload_bytes)};
    const double t = p.per_batch_ms;
    const double w = 1.0 / (t * t);
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) bm[i][j] += w * x[i] * x[j];
      bv[i] += w * x[i] * t;
    }
    ++bn;
  }
  if (bn >= 4) {
    auto det3 = [](const double a[3][3]) {
      return a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
             a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
             a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
    };
    const double bdet = det3(bm);
    double coef[3] = {0, 0, 0};
    for (int k = 0; k < 3; ++k) {
      double mk[3][3];
      std::memcpy(mk, bm, sizeof(mk));
      for (int i = 0; i < 3; ++i) mk[i][k] = bv[i];
      coef[k] = det3(mk) / bdet;
    }
    cal.batch_setup_ms = std::max(0.0, coef[0]);
    cal.batch_entry_ms = std::max(0.0, coef[1]);
    // Sanity bounds mirror the v1 fit: a batch round trip costs well
    // under 50 ms and the streamed responses move well over 50 MB/s.
    if (!(coef[2] > 0) || cal.batch_setup_ms > 50) {
      std::fprintf(stderr,
                   "FATAL: implausible batched fit (a=%.4f ms, c=%.4f "
                   "ms, slope=%.3e)\n",
                   coef[0], coef[1], coef[2]);
      std::abort();
    }
    cal.batch_bandwidth_mbps = 1.0 / (coef[2] * 1024.0 * 1024.0 / 1000.0);
    if (cal.batch_bandwidth_mbps < 50) {
      std::fprintf(stderr, "FATAL: implausible batched bandwidth %.0f MB/s\n",
                   cal.batch_bandwidth_mbps);
      std::abort();
    }
    double bsq_err = 0;
    int bsq_n = 0;
    for (BatchPoint& p : batch_points) {
      // One full window per call: entries = window = batch.
      p.predicted_ms = cal.PredictBatchedShuffleMs(
          static_cast<int64_t>(p.batch) * p.payload_bytes, p.batch, p.batch,
          /*streams=*/1);
      p.error_pct = (p.predicted_ms - p.per_batch_ms) / p.per_batch_ms * 100.0;
      bsq_err += p.error_pct * p.error_pct;
      ++bsq_n;
      if (!in_batch_fit(p) &&
          std::abs(p.error_pct) > worst_batch_holdout_pct) {
        worst_batch_holdout_pct = std::abs(p.error_pct);
      }
    }
    cal.batch_fit_residual_pct = std::sqrt(bsq_err / bsq_n);
    if (worst_batch_holdout_pct > 15.0) {
      std::fprintf(stderr,
                   "WARNING: held-out batched prediction error %.1f%% "
                   "exceeds the 15%% target\n",
                   worst_batch_holdout_pct);
    }
    std::fprintf(stderr,
                 "  batched fit: a = %.4f ms/rpc, c = %.4f ms/entry, "
                 "B = %.0f MB/s (residual %.1f%%, worst holdout %.1f%%)\n",
                 cal.batch_setup_ms, cal.batch_entry_ms,
                 cal.batch_bandwidth_mbps, cal.batch_fit_residual_pct,
                 worst_batch_holdout_pct);
  }
  cal.samples += static_cast<int64_t>(batch_points.size());
  // ---- Reactor-scaling probe ----------------------------------------
  // Concurrent-load throughput of a 4-reactor server over a 1-reactor
  // server: 8 fetcher threads draining 64 KiB fetches. Recorded as an
  // observation for the simulator, not fitted — reactor scheduling has
  // structure no constant captures.
  if (!Interrupted()) {
    const int reactor_counts[2] = {1, 4};
    double walls[2] = {0, 0};
    for (int i = 0; i < 2 && !Interrupted(); ++i) {
      const int64_t payload = 64 << 10;
      auto server = SyntheticServer(payload, 0x4EAC + i, reactor_counts[i]);
      walls[i] = MeasureCalibratePoint(server.get(), payload, /*streams=*/8,
                                       ctx.quick ? 512 : 2048, ctx.reps)
                     .wall_ms;
      std::fprintf(stderr, "  reactors %d x 8 streams: %8.3f ms wall\n",
                   reactor_counts[i], walls[i]);
    }
    if (walls[0] > 0 && walls[1] > 0) {
      cal.reactor_scaling = walls[0] / walls[1];
      std::fprintf(stderr, "  reactor scaling: %.2fx\n", cal.reactor_scaling);
    }
  }
  std::fprintf(stderr,
               "  fit: a = %.4f ms/fetch, B = %.0f MB/s "
               "(residual %.1f%%, worst holdout %.1f%%)\n",
               cal.fetch_setup_ms, cal.loopback_bandwidth_mbps,
               cal.fit_residual_pct, worst_holdout_pct);
  JsonObject json = Opening(ctx);
  json.Num("fetch_setup_ms", cal.fetch_setup_ms)
      .Num("loopback_bandwidth_mbps", cal.loopback_bandwidth_mbps)
      .Num("fit_residual_pct", cal.fit_residual_pct)
      .Int("samples", cal.samples)
      .Num("worst_holdout_error_pct", worst_holdout_pct);
  if (cal.batch_bandwidth_mbps > 0) {
    json.Num("batch_setup_ms", cal.batch_setup_ms)
        .Num("batch_entry_ms", cal.batch_entry_ms)
        .Num("batch_bandwidth_mbps", cal.batch_bandwidth_mbps)
        .Num("batch_fit_residual_pct", cal.batch_fit_residual_pct)
        .Num("worst_batch_holdout_error_pct", worst_batch_holdout_pct);
  }
  if (cal.reactor_scaling > 0) json.Num("reactor_scaling", cal.reactor_scaling);
  std::vector<JsonObject> sweep, batch_sweep;
  for (const CalibratePoint& p : points) {
    sweep.push_back(JsonObject(/*one_line=*/true)
                        .Int("payload_bytes", p.payload_bytes)
                        .Int("streams", p.streams)
                        .Int("fetches", p.fetches)
                        .Num("wall_ms", p.wall_ms)
                        .Num("predicted_ms", p.predicted_ms)
                        .Num("error_pct", p.error_pct));
  }
  for (const BatchPoint& p : batch_points) {
    batch_sweep.push_back(JsonObject(/*one_line=*/true)
                              .Int("payload_bytes", p.payload_bytes)
                              .Int("batch", p.batch)
                              .Int("calls", p.calls)
                              .Num("wall_ms", p.wall_ms)
                              .Num("per_batch_ms", p.per_batch_ms)
                              .Num("predicted_ms", p.predicted_ms)
                              .Num("error_pct", p.error_pct));
  }
  json.Array("sweep", sweep).Array("batch_sweep", batch_sweep);
  // The simulator front-ends reload exactly this file, so the bytes about
  // to be written must round-trip through their parser.
  const std::string doc = json.Render();
  auto reparsed = ParseCalibrationJson(doc);
  if (!reparsed.ok()) {
    std::fprintf(stderr, "FATAL: calibration does not round-trip: %s\n",
                 reparsed.status().ToString().c_str());
    std::abort();
  }
  return EmitReport(
      ctx, doc,
      StringPrintf("(a=%.3f ms, B=%.0f MB/s, batch a=%.3f ms c=%.4f ms "
                   "B=%.0f MB/s, worst holdout %.1f%%/%.1f%%)",
                   cal.fetch_setup_ms, cal.loopback_bandwidth_mbps,
                   cal.batch_setup_ms, cal.batch_entry_ms,
                   cal.batch_bandwidth_mbps, worst_holdout_pct,
                   worst_batch_holdout_pct));
}

// ---- combiner-ablation ------------------------------------------------------

// A sum-aggregatable LongWritable job (MR-AVG / MR-RAND / MR-SKEW) through
// four cumulative combining stages — off, per-spill, +merge-time,
// +in-node — at a constrained simulated fetch bandwidth. Every stage keeps
// the SummingReducer final, so job output is invariant to how much
// combining happened and the output fingerprint must be identical from
// "off" through "in_node" per pattern. The report also carries the
// measured combiner calibration constants (combiner_output_fraction,
// combine_cpu_per_record) the simulator's cost model consumes.
int RunCombinerAblation(const Context& ctx) {
  JobConf conf;
  conf.num_maps = 16;
  conf.num_reduces = 4;
  conf.records_per_map = ctx.records / conf.num_maps;
  conf.record.type = DataType::kLongWritable;
  // Few unique keys: the aggregatable regime (the paper restricts unique
  // keys to the reducer count) where combining pays.
  conf.record.num_unique_keys = conf.num_reduces;
  conf.local_threads = 8;
  conf.sort_threads = 1;
  // Small sort buffer so each map seals several spills — merge-time
  // combining needs a multi-spill finalize to have anything to do.
  conf.io_sort_bytes = 64 << 10;
  // Constrained simulated fetch bandwidth: serving combined (smaller)
  // partitions is where the end-to-end win comes from. Tight enough that
  // serving fewer shuffle bytes moves wall time, loose enough that a quick
  // run stays quick.
  conf.fetch_bandwidth_mbps = ctx.quick ? 12.0 : 8.0;
  conf.seed = 0xC0B1;
  const struct {
    const char* name;
    CombinerKind combiner;
    int min_spills;
    int node_min_maps;
  } stages[] = {
      {"off", CombinerKind::kNone, 0, 0},
      {"per_spill", CombinerKind::kSum, 0, 0},
      {"merge", CombinerKind::kSum, 2, 0},
      {"in_node", CombinerKind::kSum, 2, 4},
  };
  const std::pair<const char*, DistributionPattern> patterns[] = {
      {"mr_avg", DistributionPattern::kAverage},
      {"mr_rand", DistributionPattern::kRandom},
      {"mr_skew", DistributionPattern::kSkewed},
  };
  std::vector<JsonObject> pattern_rows;
  // Summed over every run: the per-spill pass's records in and out, every
  // stage's combiner input records and combiner CPU.
  int64_t spill_in = 0, spill_out = 0, total_in = 0;
  double combine_cpu = 0;
  double wire_cut = 0, speedup = 0;
  for (const auto& [pattern_name, pattern] : patterns) {
    std::fprintf(stderr, "pattern %s:\n", pattern_name);
    conf.pattern = pattern;
    std::vector<JsonObject> rows;
    std::vector<Timed<LocalJobResult>> runs;
    for (const auto& st : stages) {
      conf.combiner = st.combiner;
      conf.min_spills_for_combine = st.min_spills;
      conf.node_combine_min_maps = st.node_min_maps;
      const std::string name = std::string(pattern_name) + "/" + st.name;
      runs.push_back(BestOf(ctx.reps, [&] {
        LocalJobRunner runner(conf);
        NullInputFormat input;
        NullOutputFormat output;
        return MustRun(runner.Run(
            &input,
            [&conf](int task_id) {
              return std::make_unique<GeneratingMapper>(conf, task_id);
            },
            [](int) -> std::unique_ptr<Reducer> {
              return std::make_unique<SummingReducer>();
            },
            &output, /*partitioner_factory=*/nullptr,
            MakeBuiltinCombiner(st.combiner)));
      }));
      const LocalJobResult& job = runs.back().value;
      // The correctness claim: combining (at any stage depth) never
      // changes the job's output bytes.
      CheckFingerprint(name, job.output_fingerprint,
                       std::string(pattern_name) + "/" + stages[0].name,
                       runs[0].value.output_fingerprint);
      const int64_t combine_in =
          job.combine_spill_input_records + job.combine_merge_input_records +
          job.combine_reduce_input_records + job.combine_node_input_records;
      spill_in += job.combine_spill_input_records;
      spill_out += job.combine_spill_output_records;
      total_in += combine_in;
      combine_cpu += job.combine_seconds;
      std::fprintf(stderr,
                   "  %-26s best %8.4f s  serve %9lld B  (fingerprint %08x)\n",
                   name.c_str(), runs.back().best,
                   static_cast<long long>(job.shuffle_serve_bytes),
                   job.output_fingerprint);
      JsonObject row;
      AddTiming(row.Str("name", name), runs.back())
          .Int("map_output_wire_bytes", job.map_output_wire_bytes)
          .Int("shuffle_serve_bytes", job.shuffle_serve_bytes)
          .Num("shuffle_savings_ratio", job.shuffle_savings_ratio)
          .Int("combine_input_records", combine_in)
          .Int("combine_spill_input_records", job.combine_spill_input_records)
          .Int("combine_spill_output_records",
               job.combine_spill_output_records)
          .Int("node_combines", job.node_combines)
          .Int("shuffle_streams", job.shuffle_streams)
          .Num("combine_seconds", job.combine_seconds);
      rows.push_back(row);
      if (Interrupted()) break;
    }
    // Headline numbers from the skewed pattern (the aggregatable workload
    // the in-node combiner targets): wire-byte cut and end-to-end speedup
    // of the full pipeline over no combining.
    if (pattern == DistributionPattern::kSkewed &&
        runs.size() == std::size(stages)) {
      const Timed<LocalJobResult>& off = runs.front();
      const Timed<LocalJobResult>& full = runs.back();
      if (full.value.shuffle_serve_bytes > 0) {
        wire_cut = static_cast<double>(off.value.shuffle_serve_bytes) /
                   static_cast<double>(full.value.shuffle_serve_bytes);
      }
      if (full.best > 0) speedup = off.best / full.best;
    }
    JsonObject pattern_row;
    pattern_row.Str("pattern", pattern_name)
        .Hex("output_fingerprint", runs[0].value.output_fingerprint)
        .Array("stages", rows);
    pattern_rows.push_back(pattern_row);
    if (Interrupted()) break;
  }
  // Measured combiner calibration: output/input record ratio of the
  // per-spill pass and combiner CPU per input record, aggregated over
  // every combining run — the constants the simulator's cost model
  // (combiner_output_fraction, combine_cpu_per_record) wants measured
  // instead of guessed.
  const double output_fraction =
      spill_in > 0
          ? static_cast<double>(spill_out) / static_cast<double>(spill_in)
          : 1.0;
  const double cpu_per_record =
      total_in > 0 ? combine_cpu / static_cast<double>(total_in) : 0;
  if (wire_cut > 0 && wire_cut < 2.0) {
    std::fprintf(stderr,
                 "WARNING: skew wire-byte cut %.2fx misses the 2x target\n",
                 wire_cut);
  }
  JsonObject json = Header(
      ctx, &conf,
      JsonObject().Num("fetch_bandwidth_mbps", conf.fetch_bandwidth_mbps));
  json.Num("combiner_output_fraction", output_fraction)
      .Sci("combine_cpu_per_record", cpu_per_record)
      .Array("patterns", pattern_rows)
      .Ratio("skew_wire_cut", wire_cut > 0, wire_cut)
      .Ratio("skew_e2e_speedup", speedup > 0, speedup);
  return EmitReport(ctx, json.Render(),
                    wire_cut > 0
                        ? StringPrintf("(skew wire cut %.2fx, e2e speedup %.2fx)",
                                       wire_cut, speedup)
                        : "");
}

// ---- Scenario table and command line ----------------------------------------

const Scenario kScenarios[] = {
    {kDefaultScenario, "BENCH_sort_merge.json", "mrmb-sort-merge-bench/1",
     RunSortMerge},
    {"shuffle-overlap", "BENCH_shuffle_overlap.json",
     "mrmb-shuffle-overlap-bench/1", RunShuffleOverlap},
    {"compressed-shuffle", "BENCH_data_plane.json", "mrmb-data-plane-bench/1",
     RunCompressedShuffle},
    {"disk-spill", "BENCH_disk_spill.json", "mrmb-disk-spill-bench/1",
     RunDiskSpill},
    {"crash-recovery", "BENCH_crash_recovery.json",
     "mrmb-crash-recovery-bench/1", RunCrashRecovery},
    {"socket-shuffle", "BENCH_socket_shuffle.json",
     "mrmb-socket-shuffle-bench/1", RunSocketShuffle},
    {"pipelined-shuffle", "BENCH_pipelined_shuffle.json",
     "mrmb-pipelined-shuffle-bench/1", RunPipelinedShuffle},
    {"calibrate", "calibration.json", "mrmb-calibration/1", RunCalibrate},
    {"combiner-ablation", "BENCH_combiner.json", "mrmb-combiner-bench/1",
     RunCombinerAblation},
};

// Parses a positive integer flag value. Empty text, trailing characters,
// values <= 0 and values past T's range are rejected.
template <typename T>
bool ParsePositive(const char* text, T* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v <= 0 ||
      v > static_cast<long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace
}  // namespace mrmb

int main(int argc, char** argv) {
  using namespace mrmb;

  Context ctx;
  std::string scenario = kDefaultScenario;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t len = std::strlen(flag);
      if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    bool valid = true;
    if (const char* v = value("--records")) {
      valid = ParsePositive(v, &ctx.records);
    } else if (const char* v = value("--merge-segments")) {
      valid = ParsePositive(v, &ctx.merge_segments);
    } else if (const char* v = value("--sort-threads")) {
      valid = ParsePositive(v, &ctx.sort_threads);
    } else if (const char* v = value("--reps")) {
      valid = ParsePositive(v, &ctx.reps);
    } else if (const char* v = value("--engine")) {
      ctx.engine = v;
    } else if (const char* v = value("--baseline")) {
      ctx.baseline_path = v;
    } else if (const char* v = value("--out")) {
      ctx.out_path = v;
    } else if (const char* v = value("--scenario")) {
      scenario = v;
    } else if (arg == "--quick") {
      ctx.records = 100000;
      ctx.reps = 2;
      ctx.quick = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
    if (!valid) {
      std::fprintf(stderr, "invalid %s: expected a positive integer\n",
                   arg.c_str());
      return 2;
    }
  }
  for (const Scenario& s : kScenarios) {
    if (scenario == s.name) ctx.scenario = &s;
  }
  if (ctx.scenario == nullptr) {
    std::string names;
    for (const Scenario& s : kScenarios) {
      names += std::string(names.empty() ? "" : ", ") + s.name;
    }
    std::fprintf(stderr, "unknown scenario: %s (valid: %s)\n",
                 scenario.c_str(), names.c_str());
    return 2;
  }
  if (ctx.out_path.empty()) ctx.out_path = ctx.scenario->default_out;

  std::fprintf(stderr, "run_bench: engine=%s scenario=%s records=%lld reps=%d\n",
               ctx.engine.c_str(), scenario.c_str(),
               static_cast<long long>(ctx.records), ctx.reps);
  std::signal(SIGINT, HandleSigint);
  return ctx.scenario->run(ctx);
}
