// The benchmark's workloads and the job each one runs.
//
// A workload is a functional job shape (run for real through
// LocalJobRunner::Run) plus a paper-scale shape of the same pattern (run
// through SimJobRunner::Run). Every shape is generated from the workload
// seed; the engine only sees the resulting JobConf.

#ifndef MRMBBENCH_WORKLOADS_H_
#define MRMBBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapred/local_runner.h"
#include "mrmb/benchmark.h"
#include "trace.h"

namespace mrmbbench {

struct Workload {
  std::string name;
  std::string why;
  mrmb::JobConf job;
  mrmb::BenchmarkOptions sim;
  // Workload-specific summary of what the job exercises.
  std::string shape;
};

// `scratch_dir` receives the job's spill extents.
mrmb::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                    const std::string& scratch_dir);

// The reference configuration the output fingerprint is checked against:
// one thread, in-process transport, codec none, everything in RAM, and only
// the per-spill combiner when the workload has one.
mrmb::JobConf OracleConf(const mrmb::JobConf& job);

// The job's extension points: the stand-alone benchmark's generating mapper
// and pattern partitioner, and a reducer whose output covers every shuffled
// byte (the stock DiscardingReducer emits nothing, so its digest is emitted
// alongside; with combiner=sum the SummingReducer's output already does).
JobFactories MakeJobFactories(const mrmb::JobConf& conf);

// Runs one functional job; traced when `log` is not null.
mrmb::Result<mrmb::LocalJobResult> RunJob(const mrmb::JobConf& conf,
                                          SpanLog* log, int job_id);

// Checks one fault-free job: OK status, the oracle fingerprint, and the
// accounting invariants. Returns "" when it passes, else what broke.
std::string CheckJob(const mrmb::JobConf& conf,
                     const mrmb::Result<mrmb::LocalJobResult>& result,
                     uint32_t expected_fingerprint);

struct SimRun {
  double wall_s = 0;
  double predicted_job_s = 0;
  uint64_t events = 0;
};

// Builds the simulated cluster and runs the job on it, timing both.
// `combiner_fraction` is the measured share of map output records the
// functional job's combiner kept (1 without a combiner).
mrmb::Result<SimRun> RunSim(const mrmb::BenchmarkOptions& options,
                            double combiner_fraction);

// The functional job's own shape on one simulated node with the functional
// engine's thread count, without Hadoop's JVM and job start-up charges;
// its predicted time is compared with the measured job time.
mrmb::BenchmarkOptions FunctionalScaleSim(const Workload& workload);

}  // namespace mrmbbench

#endif  // MRMBBENCH_WORKLOADS_H_
