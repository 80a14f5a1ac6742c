// mrmbbench: the benchmark program.
//
// One workload per process, run as a closed loop: a single client runs
// functional jobs (LocalJobRunner::Run) back to back with one job in flight,
// interleaved with simulated runs of the workload's paper-scale shape
// (SimJobRunner::Run). With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it also runs traced jobs and a layer replay and reports the
// per-layer metrics. Every job is checked against the oracle fingerprint
// (passed in with --expect, computed by --mode oracle in another process).
//
//   mrmbbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--mode run|setup|oracle] [--expect HEX] [--t0 MONOTONIC_S]
//             [--setup-samples S,S,...] [--git-commit C] [--source-digest D]
//
// The last line of standard output is the result JSON. The full record —
// host and build fingerprint, metric kinds, sample counts, layer shares and
// cost-model findings — goes to DIR/result-<workload>-seed<N>-trace<T>.json;
// a traced run also writes its spans to DIR/trace-<workload>-seed<N>.json.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace mrmbbench {
namespace {

using mrmb::LocalJobResult;
using mrmb::Result;

// What a metric measures. Times say whose clock they are on.
enum class Kind { kWall, kCpu, kBlocked, kBusy, kBytes, kCount, kRatio, kRate };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kWall: return "wall_s";
    case Kind::kCpu: return "cpu_s";
    case Kind::kBlocked: return "blocked_s";
    case Kind::kBusy: return "busy_s";
    case Kind::kBytes: return "bytes";
    case Kind::kCount: return "count";
    case Kind::kRatio: return "ratio";
    case Kind::kRate: return "rate";
  }
  return "?";
}

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
  const char* source;
};

// End-to-end metrics (--trace 0).
const MetricDef kEndToEnd[] = {
    {"job_s", "s", Kind::kWall, "fastest wall time of one functional job"},
    {"cpu_s", "s", Kind::kCpu,
     "least process user+sys CPU time of one functional job"},
    {"peak_rss_mb", "MB", Kind::kBytes, "process peak RSS over the run"},
    {"setup_s", "s", Kind::kWall,
     "median over set-ups of process spawn until the first timed job may "
     "begin (includes the first, untimed job; excludes the oracle)"},
    {"sim_s", "s", Kind::kWall,
     "fastest wall time of SimJobRunner::Run on the paper-scale shape"},
};

// Per-layer metrics (--trace 1). "job" = wrapped extension points in the
// traced real jobs (median per job); "result" = LocalJobResult of the
// untraced jobs (median); "replay" = the layer replay of one job.
const MetricDef kPerLayer[] = {
    {"io.record_gen.s", "s", Kind::kBusy, "replay"},
    {"io.record_gen.bytes", "B", Kind::kBytes, "replay"},
    {"mapred.map.s", "s", Kind::kBusy, "job: Mapper::Map self"},
    {"mapred.emit.s", "s", Kind::kBusy, "job: MapContext::Emit self"},
    {"mapred.partition.s", "s", Kind::kBusy, "job: Partitioner self"},
    {"mapred.map.records", "count", Kind::kCount, "job: Emit calls"},
    {"io.kv_buffer.append_s", "s", Kind::kBusy, "replay"},
    {"io.kv_buffer.sort_s", "s", Kind::kBusy, "replay"},
    {"io.kv_buffer.to_spill_s", "s", Kind::kBusy,
     "replay; includes the spill's CRC seal"},
    {"io.kv_buffer.records", "count", Kind::kCount, "replay"},
    {"io.checksum.seal_s", "s", Kind::kBusy, "replay: merged-output seals"},
    {"io.checksum.verify_s", "s", Kind::kBusy, "replay"},
    {"io.checksum.bytes", "B", Kind::kBytes, "replay"},
    {"io.checksum.verifications", "count", Kind::kCount, "replay"},
    {"io.block_codec.compress_s", "s", Kind::kBusy, "replay"},
    {"io.block_codec.decompress_s", "s", Kind::kBusy, "replay"},
    {"io.block_codec.raw_bytes", "B", Kind::kBytes, "replay"},
    {"io.block_codec.calls", "count", Kind::kCount, "replay"},
    {"io.block_codec.ratio", "ratio", Kind::kRatio,
     "replay: compressed / raw bytes, 0 when idle"},
    {"io.spill_store.put_s", "s", Kind::kBusy, "replay"},
    {"io.spill_store.read_s", "s", Kind::kBusy, "replay"},
    {"io.spill_store.bytes_written", "B", Kind::kBytes, "replay"},
    {"io.spill_store.bytes_read", "B", Kind::kBytes, "replay"},
    {"io.spill_store.cache_hit_ratio", "ratio", Kind::kRatio,
     "replay: hits / lookups, 0 when idle"},
    {"io.spill_store.degradations", "count", Kind::kCount, "replay"},
    {"io.merge.s", "s", Kind::kBusy, "replay"},
    {"io.merge.records", "count", Kind::kCount, "replay"},
    {"io.merge.folds", "count", Kind::kCount,
     "result: intermediate_merges"},
    {"mapred.combiner.s", "s", Kind::kBusy, "job: combiner Reduce self"},
    {"mapred.combiner.in_records", "count", Kind::kCount, "job"},
    {"mapred.combiner.kept_ratio", "ratio", Kind::kRatio,
     "job: records out / in, 0 when idle"},
    {"mapred.node_combiner.s", "s", Kind::kBusy, "replay"},
    {"mapred.node_combiner.streams", "count", Kind::kCount, "replay"},
    {"mapred.reduce.s", "s", Kind::kBusy, "job: Reducer::Reduce self"},
    {"mapred.reduce.value_wait_s", "s", Kind::kBlocked,
     "job: ValueIterator::Next"},
    {"mapred.reduce.groups", "count", Kind::kCount, "job: Reduce calls"},
    {"mapred.map_phase_s", "s", Kind::kWall, "result"},
    {"mapred.shuffle_wait_per_reduce_s", "s", Kind::kBlocked,
     "result: shuffle_wait_seconds / num_reduces"},
    {"mapred.shuffle_merge_s", "s", Kind::kBusy, "result"},
    {"mapred.overlap_efficiency", "ratio", Kind::kRatio, "result"},
    {"mapred.reducer_imbalance", "ratio", Kind::kRatio,
     "result: max / mean reducer input bytes"},
    {"mapred.retry_ratio", "ratio", Kind::kRatio,
     "result: retries / attempts"},
    {"net.publish_s", "s", Kind::kWall, "replay: server start + Publish"},
    {"net.fetch_s", "s", Kind::kBlocked, "replay: FetchBatch"},
    {"net.fetch_p50_ms", "ms", Kind::kBlocked, "replay: per-entry latency"},
    {"net.fetch_p99_ms", "ms", Kind::kBlocked, "replay: per-entry latency"},
    {"net.rpcs", "count", Kind::kCount, "result: transport_fetch_rpcs"},
    {"net.partitions_per_rpc", "ratio", Kind::kRatio,
     "result: fetched partitions / rpcs, 0 when idle"},
    {"net.wire_bytes", "B", Kind::kBytes, "result"},
    {"net.retransmits", "count", Kind::kCount, "result"},
    {"net.pool_hit_ratio", "ratio", Kind::kRatio, "result"},
    {"net.window_peak", "count", Kind::kCount, "result"},
    {"rpc.encode_s", "s", Kind::kBusy, "replay: batch request + entry headers"},
    {"rpc.decode_s", "s", Kind::kBusy, "replay: batch request + entry headers"},
    {"rpc.frames", "count", Kind::kCount, "replay"},
    {"sim.events", "count", Kind::kCount, "paper-scale sim run"},
    {"sim.events_per_s", "1/s", Kind::kRate, "paper-scale sim run"},
    {"sim.predicted_job_s", "s", Kind::kWall,
     "paper-scale sim run (simulated seconds)"},
    {"sim.residual", "ratio", Kind::kRatio,
     "functional-scale sim prediction / untraced job_s - 1"},
    {"ledger.unattributed_share", "ratio", Kind::kRatio,
     "1 - sum of replay layer self times / untraced cpu_s"},
    {"ledger.trace_overhead_share", "ratio", Kind::kRatio,
     "traced job_s / untraced job_s - 1"},
};

// Replay layers the ledger sums. rpc.* is left out: the transport already
// does that framing inside net.fetch.
const char* const kLedgerLayers[] = {
    "io.record_gen",        "mapred.partition",     "io.kv_buffer.append",
    "io.kv_buffer.sort",    "io.kv_buffer.to_spill", "mapred.combiner",
    "io.checksum.seal",     "io.checksum.verify",   "io.block_codec.compress",
    "io.block_codec.decompress", "io.spill_store.put", "io.spill_store.read",
    "io.merge",             "mapred.node_combiner", "net.publish",
    "net.fetch",            "mapred.reduce",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string mode = "run";
  std::string out;
  std::string expect;
  double t0 = -1;
  std::vector<double> setup_samples;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "expected --flag value pairs, got '" + flag + "'";
      return false;
    }
    kv[flag.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = std::stoi(value);
      } else if (key == "mode") {
        args->mode = value;
      } else if (key == "out") {
        args->out = value;
      } else if (key == "expect") {
        args->expect = value;
        (void)std::stoul(value, nullptr, 16);  // throws when not hex
      } else if (key == "t0") {
        args->t0 = std::stod(value);
      } else if (key == "setup-samples") {
        size_t pos = 0;
        while (pos < value.size()) {
          size_t comma = value.find(',', pos);
          if (comma == std::string::npos) comma = value.size();
          args->setup_samples.push_back(
              std::stod(value.substr(pos, comma - pos)));
          pos = comma + 1;
        }
      } else if (key == "git-commit") {
        args->git_commit = value;
      } else if (key == "source-digest") {
        args->source_digest = value;
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    }
  } catch (const std::exception&) {
    *error = "malformed number in flags";
    return false;
  }
  if (args->workload.empty() || args->out.empty()) {
    *error = "--workload and --out are required";
    return false;
  }
  if (args->mode != "run" && args->mode != "setup" && args->mode != "oracle") {
    *error = "--mode must be run, setup or oracle";
    return false;
  }
  if (args->mode == "run" &&
      (args->seconds <= 0 || (args->trace != 0 && args->trace != 1) ||
       args->expect.empty())) {
    *error = "run mode needs --seconds > 0, --trace 0|1 and --expect";
    return false;
  }
  return true;
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

// Counts operations and the ones that failed; keeps the first messages.
class Checker {
 public:
  void Record(const std::string& what, const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    if (messages_.size() < 10) messages_.push_back(what + ": " + failure);
    std::fprintf(stderr, "mrmbbench: FAILED %s: %s\n", what.c_str(),
                 failure.c_str());
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct JobSample {
  double wall_s = 0;
  double cpu_s = 0;
  Result<LocalJobResult> result = mrmb::Status::Internal("not run");
};

class Bench {
 public:
  Bench(Args args, Workload workload, std::string scratch)
      : args_(std::move(args)),
        w_(std::move(workload)),
        scratch_(std::move(scratch)),
        expected_(args_.expect.empty()
                      ? 0
                      : static_cast<uint32_t>(
                            std::stoul(args_.expect, nullptr, 16))) {}

  JobSample Job(SpanLog* log, int job_id) {
    JobSample sample;
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    sample.result = RunJob(w_.job, log, job_id);
    sample.wall_s = Seconds(Clock::now() - t0);
    sample.cpu_s = CpuSeconds() - cpu0;
    if (!args_.expect.empty()) {
      checker_.Record(log == nullptr ? "job" : "traced job",
                      CheckJob(w_.job, sample.result, expected_));
    }
    return sample;
  }

  // The first, untimed job (already checked by Job) calibrates the
  // simulated combiner.
  void SetWarmup(const JobSample& warmup) {
    if (warmup.result.ok()) {
      warm_ = *warmup.result;
      if (warm_.combine_spill_input_records > 0) {
        combiner_fraction_ =
            static_cast<double>(warm_.combine_spill_output_records) /
            static_cast<double>(warm_.combine_spill_input_records);
      }
    }
  }

  // Runs the paper-scale shape; a result that differs from the first rep
  // is a failure (the simulator is deterministic).
  double Sim() {
    Result<SimRun> run = RunSim(w_.sim, combiner_fraction_);
    std::string failure;
    if (!run.ok()) {
      failure = run.status().ToString();
    } else if (sims_ == 0) {
      first_sim_ = *run;
    } else if (run->predicted_job_s != first_sim_.predicted_job_s ||
               run->events != first_sim_.events) {
      failure = "simulated result differs between reps";
    }
    ++sims_;
    checker_.Record("sim", failure);
    return run.ok() ? run->wall_s : 0;
  }

  // Runs untraced jobs until `budget_s` has passed (at least `min_jobs`).
  std::vector<JobSample> JobLoop(double budget_s, int min_jobs, SpanLog* log,
                                 int* next_job_id) {
    std::vector<JobSample> samples;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(samples.size()) < min_jobs ||
           Seconds(Clock::now() - start) < budget_s) {
      samples.push_back(Job(log, (*next_job_id)++));
    }
    return samples;
  }

  int Run(double setup_s) {
    std::map<std::string, double> metrics;
    std::map<std::string, double> shares;
    std::vector<std::string> findings;
    std::map<std::string, std::string> samples;
    const double S = args_.seconds;
    int next_job = 1;
    if (args_.trace == 0) {
      // Jobs and sim runs interleave one at a time, each next op being the
      // kind furthest behind its share of the run (jobs 60%), so both sample
      // every phase of the host's load. The first sim run warms the
      // simulator and is checked but not timed.
      std::vector<double> walls, cpus, sims;
      Sim();
      double job_time = 0, sim_time = 0;
      const Clock::time_point start = Clock::now();
      while (walls.size() < 2 || sims.size() < 2 ||
             Seconds(Clock::now() - start) < S) {
        if (job_time * 0.4 <= sim_time * 0.6) {
          const JobSample j = Job(nullptr, next_job++);
          walls.push_back(j.wall_s);
          cpus.push_back(j.cpu_s);
          job_time += j.wall_s;
        } else {
          sims.push_back(Sim());
          sim_time += sims.back();
        }
      }
      raw_ = "\"job_s\":" + JsonList(walls) + ",\"cpu_s\":" +
             JsonList(cpus) + ",\"sim_s\":" + JsonList(sims);
      std::vector<double> setups = args_.setup_samples;
      setups.push_back(setup_s);
      // Every rep of a kind repeats the same work on the same inputs (the
      // sim's result is checked to repeat exactly), so what makes one rep
      // slower than another is interference from the shared host: its slow
      // phases last seconds, stretch a rep up to 1.6x and leave the times
      // bimodal, so a run's median jumps between the modes from run to run.
      // The fastest rep is the steadiest estimate of the work itself; the
      // medians and the job tail are kept as samples.
      metrics["job_s"] = Min(walls);
      metrics["cpu_s"] = Min(cpus);
      metrics["peak_rss_mb"] = PeakRssMb();
      metrics["setup_s"] = Median(setups);
      metrics["sim_s"] = Min(sims);
      samples["job_s"] = std::to_string(walls.size());
      samples["job_s_median"] = JsonNumber(Median(walls));
      samples["cpu_s_median"] = JsonNumber(Median(cpus));
      samples["sim_s"] = std::to_string(sims.size());
      samples["sim_s_median"] = JsonNumber(Median(sims));
      samples["setup_s"] = std::to_string(setups.size());
      // The highest percentile with at least ten samples beyond it.
      if (walls.size() >= 20) {
        const double pct =
            std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(walls.size())));
        samples["job_s_tail"] =
            "p" + JsonNumber(pct) + "=" + JsonNumber(Percentile(walls, pct));
      }
    } else {
      TraceRun(&metrics, &shares, &findings, &samples, &next_job);
    }
    return Report(metrics, shares, findings, samples);
  }

 private:
  void TraceRun(std::map<std::string, double>* m,
                std::map<std::string, double>* shares,
                std::vector<std::string>* findings,
                std::map<std::string, std::string>* samples, int* next_job) {
    const double S = args_.seconds;
    const mrmb::JobConf& conf = w_.job;
    std::vector<JobSample> plain = JobLoop(0.35 * S, 5, nullptr, next_job);
    SpanLog log;
    const int first_traced = *next_job;
    std::vector<JobSample> traced = JobLoop(0.35 * S, 3, &log, next_job);
    (*samples)["untraced_jobs"] = std::to_string(plain.size());
    (*samples)["traced_jobs"] = std::to_string(traced.size());

    std::vector<double> plain_wall, plain_cpu, traced_wall;
    std::map<std::string, std::vector<double>> result_fields;
    for (const JobSample& j : plain) {
      plain_wall.push_back(j.wall_s);
      plain_cpu.push_back(j.cpu_s);
      if (!j.result.ok()) continue;
      const LocalJobResult& r = *j.result;
      auto& f = result_fields;
      f["mapred.map_phase_s"].push_back(r.map_phase_seconds);
      f["mapred.shuffle_wait_per_reduce_s"].push_back(
          r.shuffle_wait_seconds / conf.num_reduces);
      f["mapred.shuffle_merge_s"].push_back(r.shuffle_merge_seconds);
      f["mapred.overlap_efficiency"].push_back(r.overlap_efficiency);
      double max_in = 0, sum_in = 0;
      for (int64_t b : r.reducer_input_bytes) {
        max_in = std::max(max_in, static_cast<double>(b));
        sum_in += static_cast<double>(b);
      }
      f["mapred.reducer_imbalance"].push_back(
          sum_in > 0 ? max_in * conf.num_reduces / sum_in : 0);
      f["mapred.retry_ratio"].push_back(
          static_cast<double>(r.map_retries + r.reduce_retries) /
          static_cast<double>(std::max<int64_t>(
              1, r.map_attempts + r.reduce_attempts)));
      f["io.merge.folds"].push_back(static_cast<double>(r.intermediate_merges));
      f["net.rpcs"].push_back(static_cast<double>(r.transport_fetch_rpcs));
      f["net.partitions_per_rpc"].push_back(
          r.transport_fetch_rpcs > 0
              ? static_cast<double>(r.transport_fetched_partitions) /
                    static_cast<double>(r.transport_fetch_rpcs)
              : 0);
      f["net.wire_bytes"].push_back(static_cast<double>(r.transport_wire_bytes));
      f["net.retransmits"].push_back(
          static_cast<double>(r.transport_retransmits));
      f["net.pool_hit_ratio"].push_back(r.transport_pool_hit_rate);
      f["net.window_peak"].push_back(
          static_cast<double>(r.transport_window_peak));
    }
    for (const auto& [name, values] : result_fields) (*m)[name] = Median(values);
    for (const JobSample& j : traced) traced_wall.push_back(j.wall_s);
    const double job_s = Median(plain_wall);
    const double cpu_s = Median(plain_cpu);

    // In-job layers, per traced job.
    const std::vector<Span> spans = log.spans();
    std::map<std::string, std::vector<double>> per_job;
    for (int id = first_traced; id < *next_job; ++id) {
      std::map<std::string, LayerTotals> t = SumByLayer(spans, id);
      auto& f = per_job;
      f["mapred.map.s"].push_back(t["mapred.map"].self_s);
      f["mapred.emit.s"].push_back(t["mapred.emit"].self_s);
      f["mapred.partition.s"].push_back(t["mapred.partition"].self_s);
      f["mapred.map.records"].push_back(
          static_cast<double>(t["mapred.emit"].calls));
      const LayerTotals& c = t["mapred.combiner"];
      f["mapred.combiner.s"].push_back(c.self_s);
      f["mapred.combiner.in_records"].push_back(static_cast<double>(c.items));
      f["mapred.combiner.kept_ratio"].push_back(
          c.items > 0 ? static_cast<double>(c.out_items) /
                            static_cast<double>(c.items)
                      : 0);
      f["mapred.reduce.s"].push_back(t["mapred.reduce"].self_s);
      f["mapred.reduce.value_wait_s"].push_back(
          t["mapred.reduce.value_wait"].total_s);
      f["mapred.reduce.groups"].push_back(
          static_cast<double>(t["mapred.reduce"].calls));
    }
    for (const auto& [name, values] : per_job) (*m)[name] = Median(values);

    // Layer replay of one job.
    const int replay_id = (*next_job)++;
    Result<ReplayCounts> replay =
        ReplayJob(conf, scratch_ + "/replay", &log, replay_id);
    std::string replay_failure;
    if (!replay.ok()) {
      replay_failure = replay.status().ToString();
    } else if (replay->reduce_groups != warm_.reduce_groups) {
      replay_failure = "replay reduced " +
                       std::to_string(replay->reduce_groups) +
                       " groups, the job " + std::to_string(warm_.reduce_groups);
    }
    checker_.Record("layer replay", replay_failure);
    const ReplayCounts counts = replay.ok() ? *replay : ReplayCounts();
    std::map<std::string, LayerTotals> r = SumByLayer(log.spans(), replay_id);
    (*m)["io.record_gen.s"] = r["io.record_gen"].self_s;
    (*m)["io.record_gen.bytes"] = static_cast<double>(r["io.record_gen"].items);
    (*m)["io.kv_buffer.append_s"] = r["io.kv_buffer.append"].self_s;
    (*m)["io.kv_buffer.sort_s"] = r["io.kv_buffer.sort"].self_s;
    (*m)["io.kv_buffer.to_spill_s"] = r["io.kv_buffer.to_spill"].self_s;
    (*m)["io.kv_buffer.records"] =
        static_cast<double>(r["io.kv_buffer.append"].items);
    (*m)["io.checksum.seal_s"] = r["io.checksum.seal"].self_s;
    (*m)["io.checksum.verify_s"] = r["io.checksum.verify"].self_s;
    (*m)["io.checksum.bytes"] = static_cast<double>(counts.checksum_bytes);
    (*m)["io.checksum.verifications"] =
        static_cast<double>(counts.verifications);
    const LayerTotals& comp = r["io.block_codec.compress"];
    const LayerTotals& decomp = r["io.block_codec.decompress"];
    (*m)["io.block_codec.compress_s"] = comp.self_s;
    (*m)["io.block_codec.decompress_s"] = decomp.self_s;
    (*m)["io.block_codec.raw_bytes"] = static_cast<double>(comp.items);
    (*m)["io.block_codec.calls"] = static_cast<double>(comp.calls + decomp.calls);
    (*m)["io.block_codec.ratio"] =
        comp.items > 0 ? static_cast<double>(comp.out_items) /
                             static_cast<double>(comp.items)
                       : 0;
    (*m)["io.spill_store.put_s"] = r["io.spill_store.put"].self_s;
    (*m)["io.spill_store.read_s"] = r["io.spill_store.read"].self_s;
    (*m)["io.spill_store.bytes_written"] =
        static_cast<double>(counts.store_bytes_written);
    (*m)["io.spill_store.bytes_read"] =
        static_cast<double>(counts.store_bytes_read);
    const int64_t lookups = counts.cache_hits + counts.cache_misses;
    (*m)["io.spill_store.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(counts.cache_hits) /
                          static_cast<double>(lookups)
                    : 0;
    (*m)["io.spill_store.degradations"] =
        static_cast<double>(counts.degradations);
    (*m)["io.merge.s"] = r["io.merge"].self_s;
    (*m)["io.merge.records"] = static_cast<double>(counts.merge_records);
    (*m)["mapred.node_combiner.s"] = r["mapred.node_combiner"].self_s;
    (*m)["mapred.node_combiner.streams"] =
        r["mapred.node_combiner"].calls > 0
            ? static_cast<double>(counts.node_streams)
            : 0;
    (*m)["net.publish_s"] = r["net.publish"].total_s;
    (*m)["net.fetch_s"] = r["net.fetch"].total_s;
    (*m)["net.fetch_p50_ms"] = Percentile(counts.fetch_latency_ms, 50);
    (*m)["net.fetch_p99_ms"] = Percentile(counts.fetch_latency_ms, 99);
    (*m)["rpc.encode_s"] = r["rpc.encode"].self_s;
    (*m)["rpc.decode_s"] = r["rpc.decode"].self_s;
    (*m)["rpc.frames"] = static_cast<double>(counts.rpc_frames);

    // Paper-scale simulation, traced; then the functional-scale shape.
    {
      Span span;
      span.layer = "sim";
      span.job = (*next_job)++;
      std::vector<double> walls;
      for (int rep = 0; rep < 2; ++rep) {
        Timed timed(&span);
        walls.push_back(Sim());
      }
      (*m)["sim.events"] = static_cast<double>(first_sim_.events);
      (*m)["sim.events_per_s"] =
          static_cast<double>(first_sim_.events) / Median(walls);
      (*m)["sim.predicted_job_s"] = first_sim_.predicted_job_s;
      log.Add(std::move(span));
    }
    Result<SimRun> small = RunSim(FunctionalScaleSim(w_), combiner_fraction_);
    checker_.Record("functional-scale sim",
                    small.ok() ? "" : small.status().ToString());
    (*m)["sim.residual"] =
        small.ok() && job_s > 0 ? small->predicted_job_s / job_s - 1 : 0;

    // Ledger: how much of the job's CPU the replayed layers account for.
    double attributed = 0;
    for (const char* layer : kLedgerLayers) attributed += r[layer].self_s;
    (*m)["ledger.unattributed_share"] =
        cpu_s > 0 ? 1.0 - attributed / cpu_s : 0;
    (*m)["ledger.trace_overhead_share"] =
        job_s > 0 ? Median(traced_wall) / job_s - 1 : 0;
    if (attributed > 0) {
      for (const char* layer : kLedgerLayers) {
        std::string group = layer;
        if (group.rfind("io.", 0) == 0 || group.rfind("net.", 0) == 0) {
          group = group.substr(0, group.find('.', group.find('.') + 1));
        }
        (*shares)[group] += r[layer].self_s / attributed;
      }
    }

    // Cost-model disagreements: reported, never gated.
    const mrmb::CostModel cost = w_.sim.cost;
    auto finding = [&](const char* what, double measured, double model) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s: measured %.3g, CostModel %.3g (x%.2f)", what,
                    measured, model, model > 0 ? measured / model : 0);
      findings->push_back(buf);
    };
    if (comp.items > 0 && conf.map_output_codec == mrmb::MapOutputCodec::kLz4) {
      finding("lz4 compress s/B", comp.self_s / static_cast<double>(comp.items),
              cost.lz4_compress_cpu_per_byte);
    }
    if (decomp.items > 0 &&
        conf.map_output_codec == mrmb::MapOutputCodec::kLz4) {
      finding("lz4 decompress s/B",
              decomp.self_s / static_cast<double>(decomp.items),
              cost.lz4_decompress_cpu_per_byte);
    }
    const LayerTotals& comb = r["mapred.combiner"];
    if (comb.items > 0) {
      finding("combine s/record", comb.self_s / static_cast<double>(comb.items),
              cost.combine_cpu_per_record);
    }
    const LayerTotals& merge = r["io.merge"];
    if (counts.merge_records > 0) {
      finding("reduce-side merge s/record",
              merge.self_s / static_cast<double>(counts.merge_records),
              cost.merge_cpu_per_record);
    }
    if (small.ok()) {
      finding("functional-scale job s (sim vs measured)", job_s,
              small->predicted_job_s);
    }

    const std::string trace_path = args_.out + "/trace-" + w_.name + "-seed" +
                                   std::to_string(args_.seed) + ".json";
    const mrmb::Status written = log.WriteChromeTrace(trace_path);
    checker_.Record("trace file", written.ok() ? "" : written.ToString());
    (*samples)["trace_file"] = trace_path;
  }

  int Report(const std::map<std::string, double>& metrics,
             const std::map<std::string, double>& shares,
             const std::vector<std::string>& findings,
             const std::map<std::string, std::string>& samples) {
    const bool traced = args_.trace == 1;
    const std::string cpu = CpuModel();
    const unsigned nproc = std::thread::hardware_concurrency();
    const double error_rate =
        static_cast<double>(checker_.failed()) /
        static_cast<double>(std::max<int64_t>(1, checker_.attempted()));

    std::printf("mrmbbench %s seed=%llu trace=%d seconds=%g (closed loop, 1 "
                "client, 1 job in flight)\n",
                w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
                args_.trace, args_.seconds);
    std::printf("  shape: %s\n", w_.shape.c_str());
    std::printf("  host: %s, nproc %u, gcc %s, build %s, commit %s, source %s\n",
                cpu.c_str(), nproc, __VERSION__, MRMBBENCH_BUILD_TYPE,
                args_.git_commit.c_str(), args_.source_digest.c_str());
    std::string doc = "{\"schema\":\"mrmbbench-result/1\"";
    doc += ",\"workload\":" + JsonString(w_.name);
    doc += ",\"why\":" + JsonString(w_.why);
    doc += ",\"shape\":" + JsonString(w_.shape);
    doc += ",\"seed\":" + std::to_string(args_.seed);
    doc += ",\"trace\":" + std::to_string(args_.trace);
    doc += ",\"seconds\":" + JsonNumber(args_.seconds);
    doc += ",\"loop\":\"closed, 1 client, 1 job in flight\"";
    doc += ",\"host\":{\"cpu_model\":" + JsonString(cpu) +
           ",\"nproc\":" + std::to_string(nproc) +
           ",\"compiler\":" + JsonString(std::string("gcc ") + __VERSION__) +
           ",\"build_type\":" + JsonString(MRMBBENCH_BUILD_TYPE) +
           ",\"build_note\":" +
           JsonString("RelWithDebInfo: -DCMAKE_BUILD_TYPE=Release fails on "
                      "GCC 12 (-Werror=restrict at src/io/spill_store.cc)") +
           ",\"git_commit\":" + JsonString(args_.git_commit) +
           ",\"source_digest\":" + JsonString(args_.source_digest) + "}";
    doc += ",\"samples\":{";
    bool first = true;
    for (const auto& [k, v] : samples) {
      doc += (first ? "" : ",") + JsonString(k) + ":" + JsonString(v);
      first = false;
    }
    doc += "},\"raw\":{" + raw_ + "},\"metrics\":{";
    std::string line = "{\"correct\":";
    line += checker_.failed() == 0 ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(checker_.attempted());
    line += ",\"failed\":" + std::to_string(checker_.failed());
    line += ",\"metrics\":{";
    first = true;
    auto emit = [&](const MetricDef& def) {
      const auto it = metrics.find(def.name);
      const double value = it == metrics.end() ? 0 : it->second;
      std::printf("  %-34s %14.6g %-5s %-9s %s\n", def.name, value, def.unit,
                  KindName(def.kind), def.source);
      const std::string v = JsonNumber(value);
      const std::string sep = first ? "" : ",";
      first = false;
      line += sep + JsonString(def.name) + ":{\"value\":" + v +
              ",\"unit\":" + JsonString(def.unit) + "}";
      doc += sep + JsonString(def.name) + ":{\"value\":" + v +
             ",\"unit\":" + JsonString(def.unit) + ",\"kind\":" +
             JsonString(KindName(def.kind)) + ",\"source\":" +
             JsonString(def.source) + "}";
    };
    if (traced) {
      for (const MetricDef& def : kPerLayer) emit(def);
    } else {
      for (const MetricDef& def : kEndToEnd) emit(def);
    }
    std::printf("  %-34s %14.6g %-5s %-9s %lld failed / %lld attempted\n",
                "error_rate", error_rate, "ratio", "ratio",
                static_cast<long long>(checker_.failed()),
                static_cast<long long>(checker_.attempted()));
    for (const auto& [k, v] : samples) {
      std::printf("  samples %s: %s\n", k.c_str(), v.c_str());
    }
    for (const auto& [layer, share] : shares) {
      std::printf("  share of replayed self time %-22s %6.1f%%\n",
                  layer.c_str(), 100 * share);
    }
    for (const std::string& f : findings) {
      std::printf("  finding: %s\n", f.c_str());
    }
    for (const std::string& msg : checker_.messages()) {
      std::printf("  failure: %s\n", msg.c_str());
    }
    doc += ",\"error_rate\":{\"value\":" + JsonNumber(error_rate) +
           ",\"unit\":\"ratio\",\"kind\":\"ratio\",\"source\":\"failed / "
           "attempted operations\"}}";
    doc += ",\"attempted\":" + std::to_string(checker_.attempted());
    doc += ",\"failed\":" + std::to_string(checker_.failed());
    doc += ",\"failures\":[";
    for (size_t i = 0; i < checker_.messages().size(); ++i) {
      doc += (i ? "," : "") + JsonString(checker_.messages()[i]);
    }
    doc += "],\"shares\":{";
    first = true;
    for (const auto& [layer, share] : shares) {
      doc += (first ? "" : ",") + JsonString(layer) + ":" + JsonNumber(share);
      first = false;
    }
    doc += "},\"findings\":[";
    for (size_t i = 0; i < findings.size(); ++i) {
      doc += (i ? "," : "") + JsonString(findings[i]);
    }
    doc += "]}\n";
    const std::string path = args_.out + "/result-" + w_.name + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             std::to_string(args_.trace) + ".json";
    std::ofstream(path, std::ios::trunc) << doc;
    std::printf("  full result: %s\n", path.c_str());
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
  }

  const Args args_;
  const Workload w_;
  const std::string scratch_;
  const uint32_t expected_;
  Checker checker_;
  LocalJobResult warm_;
  double combiner_fraction_ = 1.0;
  SimRun first_sim_;
  int sims_ = 0;
  std::string raw_;  // every timed sample of an end-to-end run, as JSON
};

int Main(int argc, char** argv) {
  const Clock::time_point main_start = Clock::now();
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "mrmbbench: %s\n", error.c_str());
    return 2;
  }
  // The launcher passes its spawn time on the same monotonic clock, so
  // set-up covers process and library start-up too.
  const Clock::time_point start =
      args.t0 >= 0 ? Clock::time_point(std::chrono::duration_cast<
                                       Clock::duration>(
                         std::chrono::duration<double>(args.t0)))
                   : main_start;
  const std::string scratch =
      args.out + "/scratch-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(scratch + "/spill", ec);
  std::filesystem::create_directories(scratch + "/replay", ec);
  if (ec) {
    std::fprintf(stderr, "mrmbbench: cannot create %s\n", scratch.c_str());
    return 1;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{scratch};

  Result<Workload> workload =
      MakeWorkload(args.workload, args.seed, scratch + "/spill");
  if (!workload.ok()) {
    std::fprintf(stderr, "mrmbbench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  if (args.mode == "oracle") {
    Result<LocalJobResult> oracle =
        RunJob(OracleConf(workload->job), nullptr, 0);
    if (!oracle.ok()) {
      std::fprintf(stderr, "mrmbbench: oracle job failed: %s\n",
                   oracle.status().ToString().c_str());
      return 1;
    }
    std::printf("%08x\n", oracle->output_fingerprint);
    return 0;
  }

  Bench bench(args, *workload, scratch);
  const JobSample warmup = bench.Job(nullptr, 0);
  const double setup_s = Seconds(Clock::now() - start);
  if (args.mode == "setup") {
    if (!warmup.result.ok()) {
      std::fprintf(stderr, "mrmbbench: first job failed: %s\n",
                   warmup.result.status().ToString().c_str());
      return 1;
    }
    std::printf("%.9f\n", setup_s);
    return 0;
  }
  bench.SetWarmup(warmup);
  return bench.Run(setup_s);
}

}  // namespace
}  // namespace mrmbbench

int main(int argc, char** argv) { return mrmbbench::Main(argc, argv); }
