#include "workloads.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "cluster/sim_cluster.h"
#include "io/checksum.h"
#include "mapred/null_formats.h"
#include "mapred/partitioner.h"
#include "mapred/sim_runner.h"
#include "rpc/shuffle_wire.h"

namespace mrmbbench {

using mrmb::BenchmarkOptions;
using mrmb::JobConf;
using mrmb::LocalJobResult;
using mrmb::Result;
using mrmb::Status;

namespace {

constexpr int64_t kMB = 1024 * 1024;
constexpr int64_t kGB = 1024 * kMB;

// Feeds the values to the stock reducer while chaining a CRC32C over them.
class DigestValues final : public mrmb::ValueIterator {
 public:
  explicit DigestValues(mrmb::ValueIterator* inner) : inner_(inner) {}

  bool Next() override {
    if (!inner_->Next()) return false;
    crc_ = mrmb::Crc32c(crc_, inner_->value());
    ++count_;
    return true;
  }
  std::string_view value() const override { return inner_->value(); }

  uint32_t crc() const { return crc_; }
  uint64_t count() const { return count_; }

 private:
  mrmb::ValueIterator* inner_;
  uint32_t crc_ = mrmb::kCrc32cInit;
  uint64_t count_ = 0;
};

// The stand-alone job's DiscardingReducer, plus one (key, crc, count) record
// per group so the job's output fingerprint covers the shuffled values.
class DigestingReducer final : public mrmb::Reducer {
 public:
  void Reduce(std::string_view key, mrmb::ValueIterator* values,
              mrmb::ReduceContext* context) override {
    DigestValues digest(values);
    inner_.Reduce(key, &digest, context);
    while (digest.Next()) {
    }
    char out[12];
    const uint32_t crc = digest.crc();
    const uint64_t count = digest.count();
    std::memcpy(out, &crc, sizeof(crc));
    std::memcpy(out + sizeof(crc), &count, sizeof(count));
    context->Emit(key, std::string_view(out, sizeof(out)));
  }

 private:
  mrmb::DiscardingReducer inner_;
};

// Per-workload definition. Shuffle sizes are scaled so a job takes about a
// second on a 4-core host; each keeps its layer emphasis.
Workload TextLz4Disk(uint64_t seed, const std::string& scratch_dir) {
  Workload w;
  w.name = "text-lz4-disk";
  w.why =
      "Text through lz4 with every spill and final output on disk: codec "
      "and spill I/O dominate; transport bypassed";
  BenchmarkOptions o;
  o.pattern = mrmb::DistributionPattern::kRandom;
  o.data_type = mrmb::DataType::kText;
  o.key_size = 512;
  o.value_size = 512;
  o.num_maps = 16;
  o.num_reduces = 8;
  o.shuffle_bytes = 16 * kMB;
  o.seed = seed;
  o.local_threads = 1;
  o.map_output_codec = mrmb::MapOutputCodec::kLz4;
  o.spill_budget_bytes = 0;
  o.spill_dir = scratch_dir;
  w.job = o.ToJobConf();
  w.shape = "MR-RAND Text 1 KB pairs, 16x8, 16 MB, lz4, spill budget 0";

  w.sim = o;
  w.sim.spill_dir.clear();
  w.sim.spill_budget_bytes = -1;
  w.sim.num_maps = 128;
  w.sim.num_reduces = 32;
  w.sim.shuffle_bytes = 8 * kGB;
  w.sim.network = mrmb::OneGigE();
  w.sim.num_slaves = 8;
  return w;
}

Workload SkewSumCombine(uint64_t seed) {
  Workload w;
  w.name = "skew-sum-combine";
  w.why =
      "millions of tiny LongWritable records summed at every combine "
      "stage: generation, sort and combiner dominate; the combined shuffle "
      "is a few KB over loopback TCP; codec and spill store bypassed";
  BenchmarkOptions o;
  o.pattern = mrmb::DistributionPattern::kSkewed;
  o.data_type = mrmb::DataType::kLongWritable;
  o.num_maps = 32;
  o.num_reduces = 16;
  o.shuffle_bytes = 256 * kMB;
  o.seed = seed;
  o.local_threads = 4;
  o.combiner = mrmb::CombinerKind::kSum;
  o.min_spills_for_combine = 2;
  o.node_combine_min_maps = 4;
  o.shuffle_transport = mrmb::ShuffleTransport::kTcp;
  o.shuffle_protocol_version = 2;
  o.fetch_parallel_streams = 4;
  o.shuffle_server_reactors = 1;
  w.job = o.ToJobConf();
  // A 4 MB sort buffer gives each map several spills, so merge-time
  // combining runs.
  w.job.io_sort_bytes = 4 * kMB;
  w.shape =
      "MR-SKEW LongWritable, 32x16, 256 MB logical, combiner=sum, "
      "min_spills_for_combine=2, node_combine_min_maps=4, tcp v2";

  w.sim = o;
  w.sim.num_maps = 128;
  w.sim.num_reduces = 64;
  w.sim.shuffle_bytes = 8 * kGB;
  w.sim.network = mrmb::TenGigE();
  w.sim.num_slaves = 8;
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& scratch_dir) {
  Workload w;
  if (name == "text-lz4-disk") {
    w = TextLz4Disk(seed, scratch_dir);
  } else if (name == "skew-sum-combine") {
    w = SkewSumCombine(seed);
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  MRMB_RETURN_IF_ERROR(w.job.Validate());
  return w;
}

JobConf OracleConf(const JobConf& job) {
  JobConf oracle = job;
  oracle.local_threads = 1;
  oracle.shuffle_transport = mrmb::ShuffleTransport::kInproc;
  oracle.map_output_codec = mrmb::MapOutputCodec::kNone;
  oracle.compress_map_output = false;
  oracle.spill_dir.clear();
  oracle.spill_budget_bytes = -1;
  oracle.min_spills_for_combine = 0;
  oracle.node_combine_min_maps = 0;
  return oracle;
}

JobFactories MakeJobFactories(const JobConf& conf) {
  JobFactories f;
  f.mapper = [&conf](int task) {
    return std::make_unique<mrmb::GeneratingMapper>(conf, task);
  };
  if (conf.combiner == mrmb::CombinerKind::kSum) {
    f.reducer = [](int) { return std::make_unique<mrmb::SummingReducer>(); };
  } else {
    f.reducer = [](int) { return std::make_unique<DigestingReducer>(); };
  }
  // LocalJobRunner's default partitioner, spelled out so it can be wrapped.
  f.partitioner = [&conf](int task) {
    return mrmb::MakePartitioner(
        conf.pattern, conf.seed + static_cast<uint64_t>(task) * 7919,
        conf.records_per_map, conf.zipf_exponent);
  };
  f.combiner = mrmb::MakeBuiltinCombiner(conf.combiner);
  return f;
}

Result<LocalJobResult> RunJob(const JobConf& conf, SpanLog* log, int job_id) {
  mrmb::LocalJobRunner runner(conf);
  mrmb::NullInputFormat input;
  mrmb::NullOutputFormat output;
  JobFactories f = MakeJobFactories(conf);
  if (log == nullptr) {
    f.partitioner = nullptr;
  } else {
    f = TraceFactories(std::move(f), log, job_id);
  }
  return runner.Run(&input, f.mapper, f.reducer, &output, f.partitioner,
                    f.combiner);
}

std::string CheckJob(const JobConf& conf,
                     const Result<LocalJobResult>& result,
                     uint32_t expected_fingerprint) {
  char buf[256];
  if (!result.ok()) return "job failed: " + result.status().ToString();
  const LocalJobResult& r = *result;
  if (r.output_fingerprint != expected_fingerprint) {
    std::snprintf(buf, sizeof(buf),
                  "output_fingerprint %08x differs from the oracle's %08x",
                  r.output_fingerprint, expected_fingerprint);
    return buf;
  }
  if (r.map_attempts != conf.num_maps ||
      r.reduce_attempts != conf.num_reduces) {
    std::snprintf(buf, sizeof(buf),
                  "attempts %lld maps / %lld reduces on a fault-free job "
                  "of %d / %d",
                  static_cast<long long>(r.map_attempts),
                  static_cast<long long>(r.reduce_attempts), conf.num_maps,
                  conf.num_reduces);
    return buf;
  }
  if (conf.shuffle_transport == mrmb::ShuffleTransport::kTcp) {
    // Every served partition crosses the wire exactly once, behind one
    // batch-entry header.
    const int64_t fetched =
        r.transport_wire_bytes -
        r.transport_fetched_partitions *
            static_cast<int64_t>(mrmb::kShuffleBatchEntryHeaderSize);
    if (r.transport_fetched_partitions !=
            r.shuffle_streams * conf.num_reduces ||
        fetched != r.shuffle_serve_bytes) {
      std::snprintf(buf, sizeof(buf),
                    "tcp accounting: %lld partitions fetched for %lld "
                    "streams x %d reduces; %lld payload bytes fetched vs "
                    "%lld served",
                    static_cast<long long>(r.transport_fetched_partitions),
                    static_cast<long long>(r.shuffle_streams),
                    conf.num_reduces, static_cast<long long>(fetched),
                    static_cast<long long>(r.shuffle_serve_bytes));
      return buf;
    }
  }
  return "";
}

Result<SimRun> RunSim(const BenchmarkOptions& options,
                      double combiner_fraction) {
  const Clock::time_point start = Clock::now();
  mrmb::JobConf conf = options.ToJobConf();
  conf.combiner_output_fraction = combiner_fraction;
  mrmb::SimCluster cluster(options.ToClusterSpec());
  mrmb::SimJobRunner runner(&cluster, conf, options.cost);
  MRMB_ASSIGN_OR_RETURN(mrmb::SimJobResult job, runner.Run());
  SimRun run;
  run.wall_s = Seconds(Clock::now() - start);
  run.predicted_job_s = job.job_seconds;
  run.events = cluster.sim()->events_processed();
  return run;
}

BenchmarkOptions FunctionalScaleSim(const Workload& workload) {
  const JobConf& job = workload.job;
  BenchmarkOptions o = workload.sim;
  o.num_maps = job.num_maps;
  o.num_reduces = job.num_reduces;
  o.records_per_map = job.records_per_map;
  o.num_slaves = 1;
  o.map_slots_per_node = job.local_threads;
  o.reduce_slots_per_node = job.local_threads;
  o.cost.job_setup = 0;
  o.cost.mrv1_task_startup = 0;
  return o;
}

}  // namespace mrmbbench
