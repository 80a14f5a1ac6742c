#include "mapred/sim_runner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>

#include "io/checksum.h"
#include "mapred/local_runner.h"
#include "net/network_profile.h"
#include "sim/fault_plan.h"

namespace mrmb {
namespace {

JobConf SmallJob(DistributionPattern pattern = DistributionPattern::kAverage,
                 int maps = 8, int reduces = 4) {
  JobConf conf;
  conf.num_maps = maps;
  conf.num_reduces = reduces;
  conf.pattern = pattern;
  conf.record.key_size = 512;
  conf.record.value_size = 512;
  conf.record.num_unique_keys = reduces;
  // ~256 MB of shuffle data.
  conf.records_per_map = (256LL * 1024 * 1024) /
                         (1038LL * maps);
  conf.map_slots_per_node = 4;
  conf.reduce_slots_per_node = 2;
  conf.seed = 42;
  return conf;
}

SimJobResult MustRun(const ClusterSpec& spec, const JobConf& conf,
                     CostModel cost = CostModel::Default()) {
  SimCluster cluster(spec);
  SimJobRunner runner(&cluster, conf, cost);
  auto result = runner.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(SimRunnerTest, CompletesAndReportsPositiveTimes) {
  const SimJobResult result = MustRun(ClusterA(OneGigE(), 2), SmallJob());
  EXPECT_GT(result.job_seconds, 0);
  EXPECT_GT(result.map_phase_seconds, 0);
  EXPECT_GT(result.shuffle_phase_seconds, 0);
  EXPECT_GE(result.reduce_phase_seconds, 0);
  EXPECT_GT(result.finish_time, result.submit_time);
  EXPECT_GE(result.last_map_finish, result.first_map_start);
}

TEST(SimRunnerTest, ShuffleByteConservation) {
  const JobConf conf = SmallJob();
  const SimJobResult result = MustRun(ClusterA(OneGigE(), 2), conf);
  // Total shuffle bytes = records * framed record size.
  EXPECT_EQ(result.total_records, conf.total_records());
  const int64_t per_reduce_total = std::accumulate(
      result.reducer_bytes.begin(), result.reducer_bytes.end(), int64_t{0});
  EXPECT_EQ(per_reduce_total, result.total_shuffle_bytes);
  // Network carried at most the shuffle (loopback fetches bypass the NIC).
  EXPECT_LE(result.network_bytes, result.total_shuffle_bytes + 1.0);
  EXPECT_GT(result.network_bytes, 0);
}

TEST(SimRunnerTest, DeterministicAcrossRuns) {
  const JobConf conf = SmallJob(DistributionPattern::kRandom);
  const SimJobResult a = MustRun(ClusterA(TenGigE(), 4), conf);
  const SimJobResult b = MustRun(ClusterA(TenGigE(), 4), conf);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.reducer_bytes, b.reducer_bytes);
  EXPECT_EQ(a.total_shuffle_bytes, b.total_shuffle_bytes);
}

TEST(SimRunnerTest, FasterNetworkNeverSlower) {
  const JobConf conf = SmallJob();
  const double t_1g = MustRun(ClusterA(OneGigE(), 4), conf).job_seconds;
  const double t_10g = MustRun(ClusterA(TenGigE(), 4), conf).job_seconds;
  const double t_ib = MustRun(ClusterA(IpoibQdr(), 4), conf).job_seconds;
  EXPECT_GT(t_1g, t_10g);
  EXPECT_GE(t_10g, t_ib);
}

TEST(SimRunnerTest, MoreDataTakesLonger) {
  JobConf small = SmallJob();
  JobConf large = SmallJob();
  large.records_per_map *= 4;
  const double t_small =
      MustRun(ClusterA(OneGigE(), 4), small).job_seconds;
  const double t_large =
      MustRun(ClusterA(OneGigE(), 4), large).job_seconds;
  EXPECT_GT(t_large, t_small * 2);
}

TEST(SimRunnerTest, SkewSlowerThanAverage) {
  // Needs enough data that the slowest reducer, not fixed overhead,
  // dominates (the paper's effect shows from GB-scale shuffles).
  JobConf avg_conf = SmallJob(DistributionPattern::kAverage);
  avg_conf.records_per_map *= 8;  // ~2 GB shuffle
  JobConf skew_conf = SmallJob(DistributionPattern::kSkewed);
  skew_conf.records_per_map *= 8;
  const double t_avg =
      MustRun(ClusterA(OneGigE(), 4), avg_conf).job_seconds;
  const double t_skew =
      MustRun(ClusterA(OneGigE(), 4), skew_conf).job_seconds;
  EXPECT_GT(t_skew, t_avg * 1.2);
}

TEST(SimRunnerTest, SkewLoadImbalanceReported) {
  const SimJobResult avg = MustRun(ClusterA(OneGigE(), 2),
                                   SmallJob(DistributionPattern::kAverage));
  const SimJobResult skew = MustRun(ClusterA(OneGigE(), 2),
                                    SmallJob(DistributionPattern::kSkewed));
  EXPECT_NEAR(avg.load_imbalance, 1.0, 0.01);
  // MR-SKEW with 4 reducers: reducer 0 holds >= 50% -> imbalance >= 2.
  EXPECT_GT(skew.load_imbalance, 1.9);
}

TEST(SimRunnerTest, ReducerBytesMatchLocalRunner) {
  // The simulation's planned distribution equals the functional engine's
  // measured one (same partitioner semantics).
  JobConf conf = SmallJob(DistributionPattern::kSkewed, 3, 5);
  conf.records_per_map = 200;  // tiny so the local runner is fast
  conf.record.key_size = 16;
  conf.record.value_size = 16;
  const SimJobResult sim = MustRun(ClusterA(OneGigE(), 2), conf);
  auto local = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(sim.reducer_bytes.size(), local->reducer_input_bytes.size());
  for (size_t r = 0; r < sim.reducer_bytes.size(); ++r) {
    EXPECT_EQ(sim.reducer_bytes[r], local->reducer_input_bytes[r])
        << "reduce " << r;
  }
  EXPECT_EQ(sim.total_shuffle_bytes, local->map_output_bytes);
}

TEST(SimRunnerTest, SpillCountMatchesBufferMath) {
  JobConf conf = SmallJob();
  conf.records_per_map = 1000;
  // Framed record = 1038 bytes; buffer = io_sort * spill_percent.
  conf.io_sort_bytes = 1038 * 100;
  conf.spill_percent = 1.0;
  const SimJobResult result = MustRun(ClusterA(OneGigE(), 2), conf);
  // ceil(1000/100) = 10 spills per map.
  EXPECT_EQ(result.map_side_spills, 10 * conf.num_maps);
}

TEST(SimRunnerTest, LargerSortBufferFewerSpills) {
  JobConf small_buffer = SmallJob();
  small_buffer.io_sort_bytes = 8LL * 1024 * 1024;
  JobConf big_buffer = SmallJob();
  big_buffer.io_sort_bytes = 256LL * 1024 * 1024;
  const SimJobResult a = MustRun(ClusterA(OneGigE(), 2), small_buffer);
  const SimJobResult b = MustRun(ClusterA(OneGigE(), 2), big_buffer);
  EXPECT_GT(a.map_side_spills, b.map_side_spills);
  // A single-spill map skips the merge pass: less disk traffic.
  EXPECT_GT(a.disk_bytes, b.disk_bytes);
}

TEST(SimRunnerTest, YarnCompletesWithSharedContainers) {
  JobConf conf = SmallJob();
  conf.scheduler = SchedulerKind::kYarn;
  const SimJobResult result = MustRun(ClusterA(OneGigE(), 4), conf);
  EXPECT_GT(result.job_seconds, 0);
  EXPECT_EQ(std::accumulate(result.reducer_bytes.begin(),
                            result.reducer_bytes.end(), int64_t{0}),
            result.total_shuffle_bytes);
}

TEST(SimRunnerTest, YarnHasHigherStartupOverheadOnTinyJobs) {
  JobConf conf = SmallJob();
  conf.records_per_map = 10;  // negligible work: overhead dominates
  JobConf yarn = conf;
  yarn.scheduler = SchedulerKind::kYarn;
  const double t_mrv1 = MustRun(ClusterA(OneGigE(), 4), conf).job_seconds;
  const double t_yarn = MustRun(ClusterA(OneGigE(), 4), yarn).job_seconds;
  EXPECT_GT(t_yarn, t_mrv1);
}

TEST(SimRunnerTest, MoreSlavesFaster) {
  const JobConf conf = SmallJob(DistributionPattern::kAverage, 16, 8);
  const double t_2 = MustRun(ClusterA(IpoibQdr(), 2), conf).job_seconds;
  const double t_8 = MustRun(ClusterA(IpoibQdr(), 8), conf).job_seconds;
  EXPECT_GT(t_2, t_8 * 1.3);
}

TEST(SimRunnerTest, RdmaBeatsIpoibOnClusterB) {
  JobConf conf = SmallJob(DistributionPattern::kAverage, 16, 8);
  conf.records_per_map *= 4;
  const double t_ipoib =
      MustRun(ClusterB(IpoibFdr(), 4), conf).job_seconds;
  const double t_rdma = MustRun(ClusterB(RdmaFdr(), 4), conf).job_seconds;
  EXPECT_LT(t_rdma, t_ipoib);
}

TEST(SimRunnerTest, TextCostsMoreCpuThanBytes) {
  JobConf bytes_conf = SmallJob();
  JobConf text_conf = SmallJob();
  text_conf.record.type = DataType::kText;
  const SimJobResult bytes = MustRun(ClusterA(IpoibQdr(), 2), bytes_conf);
  const SimJobResult text = MustRun(ClusterA(IpoibQdr(), 2), text_conf);
  EXPECT_GT(text.cpu_busy_seconds, bytes.cpu_busy_seconds);
}

TEST(SimRunnerTest, SlowstartZeroLaunchesReducersEarly) {
  JobConf eager = SmallJob();
  eager.slowstart = 0.0;
  JobConf lazy = SmallJob();
  lazy.slowstart = 1.0;
  const SimJobResult a = MustRun(ClusterA(OneGigE(), 4), eager);
  const SimJobResult b = MustRun(ClusterA(OneGigE(), 4), lazy);
  // With slowstart=1.0, no fetch can start before the last map finishes.
  EXPECT_GE(b.first_fetch_start, b.last_map_finish);
  // Eager reducers overlap fetches with the map phase and finish no later.
  EXPECT_LE(a.job_seconds, b.job_seconds + 1e-9);
}

TEST(SimRunnerTest, ParallelCopiesBoundsConcurrency) {
  // One copy thread vs five: one must not be faster.
  JobConf narrow = SmallJob();
  narrow.parallel_copies = 1;
  JobConf wide = SmallJob();
  wide.parallel_copies = 5;
  const double t_narrow =
      MustRun(ClusterA(OneGigE(), 4), narrow).job_seconds;
  const double t_wide = MustRun(ClusterA(OneGigE(), 4), wide).job_seconds;
  EXPECT_GE(t_narrow, t_wide - 1e-9);
}

TEST(SimRunnerTest, RunnerIsSingleUse) {
  SimCluster cluster(ClusterA(OneGigE(), 2));
  SimJobRunner runner(&cluster, SmallJob());
  ASSERT_TRUE(runner.Run().ok());
  EXPECT_DEATH({ (void)runner.Run(); }, "single-use");
}

TEST(SimRunnerTest, InvalidConfRejected) {
  SimCluster cluster(ClusterA(OneGigE(), 2));
  JobConf conf = SmallJob();
  conf.parallel_copies = 0;
  SimJobRunner runner(&cluster, conf);
  auto result = runner.Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimRunnerTest, MonitorStopsWithJob) {
  SimCluster cluster(ClusterA(OneGigE(), 2));
  ResourceMonitor monitor(&cluster, kSecond);
  SimJobRunner runner(&cluster, SmallJob(), CostModel::Default(), &monitor);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok());
  // The monitor sampled during the job and the queue drained (Run returned).
  EXPECT_GT(monitor.samples(0).size(), 0u);
  EXPECT_EQ(cluster.sim()->pending(), 0u);
}

TEST(SimRunnerTest, ZeroRecordJobStillCompletes) {
  JobConf conf = SmallJob();
  conf.records_per_map = 0;
  const SimJobResult result = MustRun(ClusterA(OneGigE(), 2), conf);
  EXPECT_EQ(result.total_shuffle_bytes, 0);
  EXPECT_GT(result.job_seconds, 0);  // startup overheads remain
}

TEST(SimRunnerTest, SingleMapSingleReduce) {
  JobConf conf = SmallJob(DistributionPattern::kAverage, 1, 1);
  conf.record.num_unique_keys = 1;
  conf.records_per_map = 10000;
  const SimJobResult result = MustRun(ClusterA(OneGigE(), 1), conf);
  EXPECT_GT(result.job_seconds, 0);
  EXPECT_EQ(result.reducer_bytes.size(), 1u);
  EXPECT_EQ(result.reducer_bytes[0], result.total_shuffle_bytes);
}


// ---- Golden timelines --------------------------------------------------
// Exact results of fixed simulations, captured before the max-min solver,
// the fluid pools and the partition planner were rewritten for speed. The
// rewrite must not move a single event: job time is compared bit for bit
// (as a hexfloat), along with the event count and a CRC over every task's
// node, attempts and start/finish instants. A change to any of these is a
// change to the model, not an optimisation.

struct GoldenTimeline {
  double job_seconds;
  uint64_t events;
  uint32_t timeline_crc;
};

uint32_t TimelineCrc(const SimJobResult& result) {
  std::string bytes;
  auto put = [&bytes](int64_t v) {
    char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    bytes.append(raw, sizeof(v));
  };
  for (const SimJobResult::TaskRecord& task : result.timeline) {
    put(task.id);
    put(task.is_map ? 1 : 0);
    put(task.node);
    put(task.attempts);
    put(task.start_time);
    put(task.finish_time);
  }
  return Crc32c(bytes);
}

// 32 maps x 16 reduces on 4 slaves: several concurrent fetches share each
// (source, destination) pair and several tasks share each node's cores and
// disks. A 1 GB shuffle of 500-byte pairs makes MR-RAND/MR-ZIPF draw
// ~2.1 M partition numbers, enough for the planner to use threads.
JobConf GoldenJob(DistributionPattern pattern) {
  JobConf conf = SmallJob(pattern, 32, 16);
  conf.record.key_size = 250;
  conf.record.value_size = 250;
  conf.records_per_map = (1024LL * 1024 * 1024) / (504LL * 32);
  return conf;
}

ClusterSpec OversubscribedTenGigE() {
  ClusterSpec spec = ClusterA(TenGigE(), 4);
  spec.oversubscription = 0.5;
  return spec;
}

void ExpectGolden(const ClusterSpec& spec, const JobConf& conf,
                  const GoldenTimeline& golden) {
  SimCluster cluster(spec);
  SimJobRunner runner(&cluster, conf, CostModel::Default());
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->job_seconds, golden.job_seconds)
      << std::hexfloat << result->job_seconds;
  EXPECT_EQ(cluster.sim()->events_processed(), golden.events);
  EXPECT_EQ(TimelineCrc(*result), golden.timeline_crc)
      << std::hex << "0x" << TimelineCrc(*result);
}

TEST(SimRunnerGoldenTest, AverageOneGigE) {
  ExpectGolden(ClusterA(OneGigE(), 4), GoldenJob(DistributionPattern::kAverage),
               {0x1.8772cc2337454p+3, 1831, 0x54991c64});
}

TEST(SimRunnerGoldenTest, RandomOneGigE) {
  ExpectGolden(ClusterA(OneGigE(), 4), GoldenJob(DistributionPattern::kRandom),
               {0x1.878d247713eeep+3, 2221, 0x33a14f0f});
}

TEST(SimRunnerGoldenTest, SkewOneGigE) {
  ExpectGolden(ClusterA(OneGigE(), 4), GoldenJob(DistributionPattern::kSkewed),
               {0x1.e9d22ac0509b3p+3, 2270, 0x13a08483});
}

TEST(SimRunnerGoldenTest, ZipfOneGigE) {
  ExpectGolden(ClusterA(OneGigE(), 4), GoldenJob(DistributionPattern::kZipf),
               {0x1.869dd89103d18p+3, 2238, 0x1d20f5bd});
}

TEST(SimRunnerGoldenTest, AverageOversubscribedTenGigE) {
  ExpectGolden(OversubscribedTenGigE(),
               GoldenJob(DistributionPattern::kAverage),
               {0x1.74832422db328p+3, 1706, 0x0d21cb62});
}

TEST(SimRunnerGoldenTest, RandomOversubscribedTenGigE) {
  ExpectGolden(OversubscribedTenGigE(),
               GoldenJob(DistributionPattern::kRandom),
               {0x1.7497106a865bap+3, 2214, 0x30104d6c});
}

TEST(SimRunnerGoldenTest, SkewOversubscribedTenGigE) {
  ExpectGolden(OversubscribedTenGigE(),
               GoldenJob(DistributionPattern::kSkewed),
               {0x1.d371cd0bd9498p+3, 2274, 0xaa8f29af});
}

TEST(SimRunnerGoldenTest, ZipfOversubscribedTenGigE) {
  ExpectGolden(OversubscribedTenGigE(), GoldenJob(DistributionPattern::kZipf),
               {0x1.81747636be023p+3, 2237, 0x962bbde3});
}

TEST(SimRunnerGoldenTest, YarnRandomOneGigE) {
  JobConf conf = GoldenJob(DistributionPattern::kRandom);
  conf.scheduler = SchedulerKind::kYarn;
  ExpectGolden(ClusterA(OneGigE(), 4), conf,
               {0x1.05ce18182d51p+4, 2177, 0x8a603b87});
}

TEST(SimRunnerGoldenTest, DfsInputAndOutputTenGigE) {
  JobConf conf = GoldenJob(DistributionPattern::kAverage);
  conf.read_input_from_dfs = true;
  conf.write_output_to_dfs = true;
  ExpectGolden(ClusterA(TenGigE(), 4), conf,
               {0x1.30d8f9920df04p+4, 2273, 0x5087847b});
}

TEST(SimRunnerGoldenTest, CrashDegradedLinkAndFetchFailures) {
  JobConf conf = GoldenJob(DistributionPattern::kRandom);
  auto plan = FaultPlan::Parse(
      "kill_node:1@t=9s;recover_node:1@t=13s;"
      "degrade_link:2@t=4s,x0.25;fetch_fail_prob:0.05");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  conf.fault_plan = *plan;
  ExpectGolden(ClusterA(OneGigE(), 4), conf,
               {0x1.41ece8182cc79p+4, 2588, 0xa12941af});
}

}  // namespace
}  // namespace mrmb
