#include "mapred/sim_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "common/strings.h"
#include "dfs/dfs.h"
#include "io/block_codec.h"
#include "io/byte_buffer.h"
#include "io/codec.h"
#include "mapred/partitioner.h"

namespace mrmb {

namespace {
// Seed stride between map tasks; must match LocalMapContext so both runners
// draw identical partition distributions.
constexpr uint64_t kTaskSeedStride = 7919;
}  // namespace

SimJobRunner::SimJobRunner(SimCluster* cluster, JobConf conf, CostModel cost,
                           ResourceMonitor* monitor)
    : cluster_(cluster),
      conf_(std::move(conf)),
      cost_(cost),
      monitor_(monitor),
      sim_(cluster->sim()) {}

SimTime SimJobRunner::TaskStartup() const {
  return FromSeconds(conf_.scheduler == SchedulerKind::kMrv1
                         ? cost_.mrv1_task_startup
                         : cost_.yarn_task_startup);
}

SimTime SimJobRunner::HeartbeatInterval() const {
  return FromSeconds(conf_.scheduler == SchedulerKind::kMrv1
                         ? cost_.mrv1_heartbeat
                         : cost_.yarn_heartbeat);
}

double SimJobRunner::FrameBytes() const {
  return static_cast<double>(framed_record_bytes_);
}

void SimJobRunner::InitNodeCapacity(int node) {
  const NodeSpec& node_spec = cluster_->spec().node;
  NodeState& state = nodes_[static_cast<size_t>(node)];
  state.free_map_slots = conf_.map_slots_per_node;
  state.free_reduce_slots = conf_.reduce_slots_per_node;
  const int by_memory = static_cast<int>(
      static_cast<double>(node_spec.memory_bytes) * 0.8 /
      static_cast<double>(conf_.yarn_container_bytes));
  state.free_containers = std::max(1, std::min(node_spec.cores, by_memory));
  if (conf_.scheduler == SchedulerKind::kYarn && node == 0) {
    // The ApplicationMaster occupies one container on the first node.
    state.free_containers = std::max(0, state.free_containers - 1);
  }
}

Result<SimJobResult> SimJobRunner::Run() {
  MRMB_RETURN_IF_ERROR(conf_.Validate());
  MRMB_CHECK(!started_) << "SimJobRunner is single-use";
  started_ = true;

  const int num_nodes = cluster_->num_nodes();

  for (const FaultEvent& event : conf_.fault_plan.events) {
    if (event.node >= num_nodes) {
      return Status::InvalidArgument(
          StringPrintf("fault plan targets node %d but the cluster has only "
                       "%d nodes",
                       event.node, num_nodes));
    }
  }

  RecordGenerator generator(conf_.record);
  framed_record_bytes_ = static_cast<int64_t>(generator.framed_record_size());
  type_factor_ = cost_.TypeFactor(conf_.record.type);
  map_output_codec_ = conf_.effective_map_output_codec();
  if (map_output_codec_ != MapOutputCodec::kNone &&
      conf_.records_per_map > 0) {
    // Measure the selected codec's real ratio over a sample of framed
    // records; the whole byte/CPU trade below follows from it.
    std::string sample;
    BufferWriter writer(&sample);
    std::string key;
    std::string value;
    const int64_t sample_records = std::min<int64_t>(conf_.records_per_map,
                                                     64);
    for (int64_t i = 0; i < sample_records; ++i) {
      generator.SerializedKey(generator.KeyIdFor(i), &key);
      generator.SerializedValue(i, &value);
      writer.AppendVarint64(static_cast<int64_t>(key.size()));
      writer.AppendVarint64(static_cast<int64_t>(value.size()));
      writer.AppendRaw(key);
      writer.AppendRaw(value);
    }
    wire_factor_ = MeasureCodecRatio(map_output_codec_, sample);
  }
  reduce_memory_limit_ = static_cast<int64_t>(
      conf_.shuffle_input_buffer_fraction *
      static_cast<double>(conf_.yarn_container_bytes));

  // ---- Build task tables ------------------------------------------------
  const int64_t spill_capacity_bytes = static_cast<int64_t>(
      static_cast<double>(conf_.io_sort_bytes) * conf_.spill_percent);
  const int64_t records_per_spill =
      std::max<int64_t>(1, spill_capacity_bytes / framed_record_bytes_);

  maps_.assign(static_cast<size_t>(conf_.num_maps), MapTask{});
  reduces_.assign(static_cast<size_t>(conf_.num_reduces), ReduceTask{});
  result_.reducer_bytes.assign(static_cast<size_t>(conf_.num_reduces), 0);
  rng_.Reseed(conf_.seed ^ 0xfa17c0de);
  fault_rng_.Reseed(conf_.seed ^ 0xdeadfa11);
  // Combiner model: only this fraction of records survives per-spill
  // combining; shuffle volumes shrink accordingly.
  const double combine = conf_.combiner_output_fraction;
  std::vector<uint64_t> map_seeds(static_cast<size_t>(conf_.num_maps));
  for (int m = 0; m < conf_.num_maps; ++m) {
    map_seeds[static_cast<size_t>(m)] =
        conf_.seed + static_cast<uint64_t>(m) * kTaskSeedStride;
  }
  const std::vector<int64_t> job_counts = PlanJobPartitionCounts(
      conf_.pattern, map_seeds, conf_.records_per_map, conf_.num_reduces,
      conf_.zipf_exponent);

  for (int m = 0; m < conf_.num_maps; ++m) {
    MapTask& map = maps_[static_cast<size_t>(m)];
    map.id = m;
    map.records = conf_.records_per_map;
    map.output_bytes = map.records * framed_record_bytes_;
    map.num_spills = static_cast<int>(
        (map.records + records_per_spill - 1) / records_per_spill);
    if (map.num_spills == 0) map.num_spills = 1;
    const int64_t* counts =
        job_counts.data() + static_cast<size_t>(m) * reduces_.size();
    map.bytes_for_reduce.resize(static_cast<size_t>(conf_.num_reduces));
    for (int r = 0; r < conf_.num_reduces; ++r) {
      const int64_t combined_records = static_cast<int64_t>(
          combine * static_cast<double>(counts[r]));
      const int64_t bytes = combined_records * framed_record_bytes_;
      map.bytes_for_reduce[static_cast<size_t>(r)] = bytes;
      reduces_[static_cast<size_t>(r)].input_bytes += bytes;
      reduces_[static_cast<size_t>(r)].input_records += combined_records;
      result_.reducer_bytes[static_cast<size_t>(r)] += bytes;
    }
    // Define the task's output as exactly the sum of its per-reduce
    // parts, so byte conservation holds under combiner rounding.
    map.output_bytes = 0;
    for (int64_t bytes : map.bytes_for_reduce) map.output_bytes += bytes;
    result_.total_records += map.records;
    result_.total_shuffle_bytes += map.output_bytes;
    result_.map_side_spills += map.num_spills;
    pending_maps_.push_back(m);
  }
  for (int r = 0; r < conf_.num_reduces; ++r) {
    ReduceTask& reduce = reduces_[static_cast<size_t>(r)];
    reduce.id = r;
    reduce.fetch_state.assign(static_cast<size_t>(conf_.num_maps),
                              FetchState::kNone);
    reduce.fetch_fail_count.assign(static_cast<size_t>(conf_.num_maps), 0);
    pending_reduces_.push_back(r);
  }
  result_.load_imbalance = LoadImbalance(result_.reducer_bytes);

  // ---- Node slots/containers -----------------------------------------
  nodes_.assign(static_cast<size_t>(num_nodes), NodeState{});
  for (int n = 0; n < num_nodes; ++n) InitNodeCapacity(n);

  slowstart_threshold_ =
      conf_.slowstart <= 0.0
          ? 0
          : std::max<int>(1, static_cast<int>(std::ceil(
                                 conf_.slowstart * conf_.num_maps)));

  // ---- DFS setup (Sort/TeraSort-shaped jobs) --------------------------
  if (conf_.read_input_from_dfs || conf_.write_output_to_dfs) {
    dfs_ = std::make_unique<SimDfs>(cluster_, conf_.dfs_block_bytes,
                                    conf_.dfs_replication,
                                    conf_.seed ^ 0xd5f5d5f5);
  }
  if (conf_.read_input_from_dfs) {
    // The input file pre-exists (written by an external client): creating
    // it costs no simulated time, only placement metadata.
    const int64_t per_map_input = conf_.records_per_map *
                                  framed_record_bytes_;
    auto input = dfs_->names()->CreateFile(
        "/" + conf_.job_name + "/input", per_map_input * conf_.num_maps,
        /*writer_node=*/-1);
    MRMB_CHECK(input.ok()) << input.status().ToString();
    // Cache the block holding each map's split start for the locality
    // scheduler.
    map_input_block_.resize(static_cast<size_t>(conf_.num_maps));
    for (int m = 0; m < conf_.num_maps; ++m) {
      const int64_t offset = per_map_input * m;
      const auto index = static_cast<size_t>(
          conf_.dfs_block_bytes > 0 ? offset / conf_.dfs_block_bytes : 0);
      if (!input->blocks.empty()) {
        map_input_block_[static_cast<size_t>(m)] =
            input->blocks[std::min(index, input->blocks.size() - 1)];
      }
    }
  }

  // ---- Fault plan -------------------------------------------------------
  for (const FaultEvent& event : conf_.fault_plan.events) {
    if (event.kind == FaultEventKind::kRecoverNode) ++scheduled_recoveries_;
    sim_->After(FromSeconds(event.at_seconds),
                [this, event] { ApplyFaultEvent(event); });
  }

  // ---- Go ---------------------------------------------------------------
  job_running_ = true;
  result_.submit_time = sim_->Now();
  result_.first_map_start = -1;
  result_.first_fetch_start = -1;
  if (monitor_ != nullptr) monitor_->Start();

  double setup = cost_.job_setup;
  if (conf_.scheduler == SchedulerKind::kYarn) setup += cost_.yarn_am_startup;
  const SimTime hb = HeartbeatInterval();
  for (int n = 0; n < num_nodes; ++n) {
    // Stagger first heartbeats so the trackers don't tick in lockstep.
    const SimTime offset =
        hb * static_cast<SimTime>(n) / static_cast<SimTime>(num_nodes);
    ScheduleHeartbeat(n, FromSeconds(setup) + offset);
  }

  sim_->Run();

  if (job_failed_) {
    return Status::ResourceExhausted("job failed: " + failure_reason_);
  }
  if (completed_reduces_ != conf_.num_reduces) {
    return Status::Internal("simulation drained before job completion (" +
                            std::to_string(completed_reduces_) + "/" +
                            std::to_string(conf_.num_reduces) +
                            " reduces done)");
  }

  // ---- Collect result ------------------------------------------------
  result_.job_seconds = ToSeconds(result_.finish_time - result_.submit_time);
  result_.map_phase_seconds =
      ToSeconds(result_.last_map_finish - result_.first_map_start);
  result_.shuffle_phase_seconds =
      result_.first_fetch_start < 0
          ? 0
          : ToSeconds(result_.last_fetch_finish - result_.first_fetch_start);
  result_.reduce_phase_seconds =
      ToSeconds(result_.finish_time - result_.last_fetch_finish);
  for (int n = 0; n < num_nodes; ++n) {
    result_.cpu_busy_seconds += cluster_->CpuBusySeconds(n);
    result_.disk_bytes += cluster_->DiskBytes(n);
    result_.network_bytes += cluster_->RxBytes(n);
  }
  if (dfs_ != nullptr) {
    result_.dfs_network_bytes = dfs_->network_bytes();
    result_.dfs_disk_bytes = dfs_->disk_bytes();
  }
  for (const MapTask& map : maps_) {
    result_.timeline.push_back(SimJobResult::TaskRecord{
        map.id, /*is_map=*/true, map.node, map.attempts, map.start_time,
        map.finish_time});
  }
  for (const ReduceTask& reduce : reduces_) {
    result_.timeline.push_back(SimJobResult::TaskRecord{
        reduce.id, /*is_map=*/false, reduce.node, reduce.attempts,
        reduce.start_time, reduce.finish_time});
  }
  return result_;
}

// ---------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------

void SimJobRunner::ScheduleHeartbeat(int node, SimTime delay) {
  sim_->After(delay, [this, node] { OnHeartbeat(node); });
}

void SimJobRunner::OnHeartbeat(int node) {
  if (!job_running_) return;
  NodeState& state = nodes_[static_cast<size_t>(node)];
  // A dead node stops heartbeating; RecoverNode restarts the loop.
  if (!state.alive) return;
  if (conf_.fault_plan.node_crash_prob > 0 &&
      fault_rng_.Bernoulli(conf_.fault_plan.node_crash_prob)) {
    CrashNode(node);
    return;
  }
  // Classic JobTracker behaviour: at most one new map and one new reduce
  // per tracker heartbeat — this produces the real ramp-up lag.
  MaybeSpeculate();
  if (!state.blacklisted) {
    AssignOneMap(node);
    AssignOneReduce(node);
  }
  ScheduleHeartbeat(node, HeartbeatInterval());
}

int SimJobRunner::TotalFreeContainers() const {
  int total = 0;
  for (const NodeState& node : nodes_) {
    if (node.alive && !node.blacklisted) total += node.free_containers;
  }
  return total;
}

bool SimJobRunner::ReduceLaunchAllowed() const {
  if (completed_maps_ < slowstart_threshold_) return false;
  if (conf_.scheduler == SchedulerKind::kMrv1) return true;
  // YARN shares containers between map and reduce tasks: keep headroom for
  // unscheduled maps so reducers cannot starve the map phase.
  return pending_maps_.empty() || TotalFreeContainers() > 1;
}

bool SimJobRunner::AssignOneMap(int node) {
  if (pending_maps_.empty()) return false;
  NodeState& state = nodes_[static_cast<size_t>(node)];
  if (conf_.scheduler == SchedulerKind::kMrv1) {
    if (state.free_map_slots <= 0) return false;
    --state.free_map_slots;
  } else {
    if (state.free_containers <= 0) return false;
    --state.free_containers;
  }
  // Data-locality scheduling: when input comes from the DFS, prefer a
  // pending map whose split has a replica on this node (Hadoop's
  // node-local task selection).
  auto chosen = pending_maps_.begin();
  if (conf_.read_input_from_dfs) {
    for (auto it = pending_maps_.begin(); it != pending_maps_.end(); ++it) {
      if (MapInputLocalTo(*it, node)) {
        chosen = it;
        break;
      }
    }
  }
  const int map_id = *chosen;
  pending_maps_.erase(chosen);
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  if (map.state == TaskState::kDone) {
    // Stale speculative request: the original attempt finished first.
    if (conf_.scheduler == SchedulerKind::kMrv1) {
      ++state.free_map_slots;
    } else {
      ++state.free_containers;
    }
    return false;
  }
  if (map.state == TaskState::kPending) map.state = TaskState::kAssigned;
  MapAttempt attempt;
  attempt.serial = map.next_serial++;
  attempt.node = node;
  attempt.assign_time = sim_->Now();
  attempt.fail_at_spill =
      rng_.Bernoulli(conf_.map_failure_prob)
          ? static_cast<int>(rng_.Uniform(
                static_cast<uint64_t>(std::max(1, map.num_spills))))
          : -1;
  attempt.slow_factor =
      rng_.Bernoulli(conf_.straggler_prob) ? conf_.straggler_slowdown : 1.0;
  const int serial = attempt.serial;
  MRMB_LOG(Debug) << "launch map " << map_id << " serial " << serial
                  << " node " << node << " slow=" << attempt.slow_factor
                  << " t=" << ToSeconds(sim_->Now());
  map.active_attempts.emplace(serial, attempt);
  map.attempts += 1;
  result_.total_task_attempts += 1;
  sim_->After(TaskStartup(),
              [this, map_id, serial] { StartMap(map_id, serial); });
  return true;
}

bool SimJobRunner::AssignOneReduce(int node) {
  if (pending_reduces_.empty()) return false;
  if (!ReduceLaunchAllowed()) return false;
  NodeState& state = nodes_[static_cast<size_t>(node)];
  if (conf_.scheduler == SchedulerKind::kMrv1) {
    if (state.free_reduce_slots <= 0) return false;
    --state.free_reduce_slots;
  } else {
    if (state.free_containers <= 0) return false;
    --state.free_containers;
  }
  const int reduce_id = pending_reduces_.front();
  pending_reduces_.pop_front();
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  reduce.node = node;
  reduce.state = TaskState::kAssigned;
  reduce.attempts += 1;
  result_.total_task_attempts += 1;
  reduce.assign_time = sim_->Now();
  reduce.fail_on_start = rng_.Bernoulli(conf_.reduce_failure_prob);
  reduce.slow_factor =
      rng_.Bernoulli(conf_.straggler_prob) ? conf_.straggler_slowdown : 1.0;
  const int serial = reduce.serial;
  sim_->After(TaskStartup(),
              [this, reduce_id, serial] { StartReduce(reduce_id, serial); });
  return true;
}

// ---------------------------------------------------------------------
// Fault domain
// ---------------------------------------------------------------------

void SimJobRunner::ApplyFaultEvent(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEventKind::kKillNode:
      if (job_running_) CrashNode(event.node);
      break;
    case FaultEventKind::kRecoverNode:
      --scheduled_recoveries_;
      if (job_running_) {
        RecoverNode(event.node);
      }
      break;
    case FaultEventKind::kDegradeLink:
      // Link changes apply even between jobs: the fabric outlives the run.
      cluster_->SetLinkFactor(event.node, event.factor);
      break;
  }
}

void SimJobRunner::CrashNode(int node) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  if (!state.alive || !job_running_) return;
  MRMB_LOG(Info) << "node " << node << " crashed at t="
                 << ToSeconds(sim_->Now());
  state.alive = false;
  ++result_.node_crashes;
  // Withdraw all capacity; nothing new lands here until recovery.
  state.free_map_slots = 0;
  state.free_reduce_slots = 0;
  state.free_containers = 0;

  const SimTime now = sim_->Now();

  // Running/assigned map attempts on this node die (KILLED, not FAILED:
  // node loss does not count against max_task_attempts — Hadoop semantics).
  for (MapTask& map : maps_) {
    std::vector<int> dead_serials;
    for (auto& [serial, attempt] : map.active_attempts) {
      if (attempt.node == node) dead_serials.push_back(serial);
    }
    for (int serial : dead_serials) {
      auto it = map.active_attempts.find(serial);
      // The slot was occupied (startup included) from assignment; all of
      // that is lost work now.
      result_.wasted_attempt_seconds +=
          ToSeconds(now - it->second.assign_time);
      map.active_attempts.erase(it);
    }
    if (!dead_serials.empty() && map.state != TaskState::kDone &&
        map.active_attempts.empty()) {
      map.state = TaskState::kPending;
      map.backup_enqueued = false;
      pending_maps_.push_back(map.id);
    }
  }

  // Reduce attempts on this node die the same way and re-queue.
  for (ReduceTask& reduce : reduces_) {
    if (reduce.node == node && (reduce.state == TaskState::kAssigned ||
                                reduce.state == TaskState::kRunning)) {
      FailReduceAttempt(reduce.id, /*node_loss=*/true);
    }
  }

  // The crux of node-level failure domains: completed map output stored on
  // this node is gone. Any such map still needed by an unfinished reducer
  // must re-execute. (Checked after the reduce unwind above, whose
  // fetch-state resets make previously fetched outputs needed again.)
  for (MapTask& map : maps_) {
    if (map.state == TaskState::kDone && map.node == node &&
        MapOutputStillNeeded(map)) {
      InvalidateMapOutput(map.id, "node crash");
    }
  }

  // Local storage state dies with the node.
  state.map_output_bytes = 0;
  state.reduce_spill_bytes = 0;
  state.reduce_dirty_bytes = 0;

  CheckSchedulableOrAbort();
}

void SimJobRunner::RecoverNode(int node) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  if (state.alive || !job_running_) return;
  MRMB_LOG(Info) << "node " << node << " recovered at t="
                 << ToSeconds(sim_->Now());
  state.alive = true;
  ++result_.node_recoveries;
  // Fresh daemon, empty local dirs; the blacklist decision outlives the
  // crash (the JobTracker remembers the tracker name).
  InitNodeCapacity(node);
  ScheduleHeartbeat(node, HeartbeatInterval());
}

bool SimJobRunner::MapOutputStillNeeded(const MapTask& map) const {
  for (const ReduceTask& reduce : reduces_) {
    if (reduce.state == TaskState::kDone) continue;
    if (reduce.fetch_state[static_cast<size_t>(map.id)] !=
        FetchState::kFetched) {
      return true;
    }
  }
  return false;
}

void SimJobRunner::InvalidateMapOutput(int map_id, const char* why) {
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  if (map.state != TaskState::kDone) return;
  MRMB_LOG(Info) << "map " << map_id << " output lost (" << why
                 << "); re-executing, t=" << ToSeconds(sim_->Now());
  // Retire the old output generation: queued or in-flight fetches against
  // it unwind when they observe the generation mismatch.
  ++map.generation;
  map.fetch_failures = 0;
  map.state = TaskState::kPending;
  map.backup_enqueued = false;
  --completed_maps_;
  completed_map_duration_sum_ -= map.last_run_seconds;
  ++result_.reexecuted_maps;
  // The whole winning attempt is wasted work now.
  result_.wasted_attempt_seconds += map.last_run_seconds;
  if (map.node >= 0) {
    NodeState& host = nodes_[static_cast<size_t>(map.node)];
    host.map_output_bytes = std::max<int64_t>(
        0, host.map_output_bytes -
               static_cast<int64_t>(wire_factor_ *
                                    static_cast<double>(map.output_bytes)));
  }
  map.node = -1;
  // Reducers that had fetched this output keep their bytes (Hadoop loses
  // only unfetched segments); everyone else goes back to "not requested"
  // and is re-fed when the new attempt completes.
  for (ReduceTask& reduce : reduces_) {
    if (reduce.state == TaskState::kDone) continue;
    FetchState& fs = reduce.fetch_state[static_cast<size_t>(map_id)];
    if (fs != FetchState::kFetched) fs = FetchState::kNone;
    reduce.fetch_fail_count[static_cast<size_t>(map_id)] = 0;
  }
  if (job_running_) pending_maps_.push_back(map_id);
  CheckSchedulableOrAbort();
}

void SimJobRunner::RecordTaskFailure(int node) {
  if (node < 0) return;
  NodeState& state = nodes_[static_cast<size_t>(node)];
  ++state.task_failures;
  if (conf_.node_blacklist_threshold > 0 && !state.blacklisted &&
      state.task_failures >= conf_.node_blacklist_threshold) {
    // Hadoop caps blacklisting at 50% of the live cluster so a job-wide
    // bug cannot starve itself of trackers.
    int alive = 0;
    int blacklisted = 0;
    for (const NodeState& n : nodes_) {
      if (!n.alive) continue;
      ++alive;
      if (n.blacklisted) ++blacklisted;
    }
    if (2 * (blacklisted + 1) > alive) return;
    // Hadoop blacklisting: the tracker gets no new tasks, but running
    // attempts finish and served map output stays fetchable.
    state.blacklisted = true;
    ++result_.blacklisted_nodes;
    MRMB_LOG(Info) << "node " << node << " blacklisted after "
                   << state.task_failures << " task failures";
    CheckSchedulableOrAbort();
  }
}

void SimJobRunner::CheckSchedulableOrAbort() {
  if (!job_running_) return;
  if (pending_maps_.empty() && pending_reduces_.empty()) return;
  // A scheduled recovery can still bring capacity back; wait for it.
  if (scheduled_recoveries_ > 0) return;
  for (const NodeState& node : nodes_) {
    if (node.alive && !node.blacklisted) return;
  }
  AbortJob("no schedulable nodes remain (all crashed or blacklisted) with " +
           std::to_string(pending_maps_.size()) + " maps and " +
           std::to_string(pending_reduces_.size()) + " reduces pending");
}

// ---------------------------------------------------------------------
// Map execution
// ---------------------------------------------------------------------

double SimJobRunner::MapSpillCpuSeconds(const MapTask& map,
                                        int64_t records) const {
  (void)map;
  const double n = static_cast<double>(records);
  const double bytes = n * FrameBytes();
  const double log_n = std::log2(std::max<double>(2.0, n));
  return n * cost_.map_cpu_per_record +
         bytes * cost_.map_cpu_per_byte * type_factor_ +
         n * log_n * cost_.sort_cpu_per_compare;
}

SimJobRunner::MapAttempt* SimJobRunner::LiveAttempt(int map_id, int serial) {
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  auto it = map.active_attempts.find(serial);
  if (it == map.active_attempts.end()) return nullptr;
  if (map.state == TaskState::kDone || it->second.killed || !job_running_) {
    // The task finished through another attempt (or this one was killed, or
    // the job aborted): unwind at this step boundary and free the slot.
    ReleaseMapAttempt(map_id, serial);
    return nullptr;
  }
  return &it->second;
}

void SimJobRunner::ReleaseMapAttempt(int map_id, int serial) {
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  auto it = map.active_attempts.find(serial);
  if (it == map.active_attempts.end()) return;
  const int node_id = it->second.node;
  map.active_attempts.erase(it);
  NodeState& node = nodes_[static_cast<size_t>(node_id)];
  // A dead node's slots were withdrawn when it crashed; nothing to return.
  if (!node.alive) return;
  if (conf_.scheduler == SchedulerKind::kMrv1) {
    ++node.free_map_slots;
  } else {
    ++node.free_containers;
  }
}

void SimJobRunner::MaybeSpeculate() {
  if (!conf_.speculative_execution || completed_maps_ <= 0) return;
  const double mean_duration =
      completed_map_duration_sum_ / completed_maps_;
  const SimTime now = sim_->Now();
  for (MapTask& map : maps_) {
    if (map.state != TaskState::kRunning || map.backup_enqueued) continue;
    if (map.active_attempts.size() != 1) continue;
    const MapAttempt& attempt = map.active_attempts.begin()->second;
    if (attempt.start_time == 0) continue;  // still in task startup
    const double elapsed = ToSeconds(now - attempt.start_time);
    if (elapsed > conf_.speculative_threshold * mean_duration) {
      map.backup_enqueued = true;
      pending_maps_.push_back(map.id);
      MRMB_LOG(Debug) << "speculate map " << map.id << " at t="
                      << ToSeconds(now) << " elapsed=" << elapsed
                      << " mean=" << mean_duration;
    }
  }
}

bool SimJobRunner::MapInputLocalTo(int map_id, int node) const {
  if (map_input_block_.empty()) return false;
  return DfsNamespace::HasReplica(
      map_input_block_[static_cast<size_t>(map_id)], node);
}

void SimJobRunner::StartMap(int map_id, int serial) {
  MapAttempt* attempt = LiveAttempt(map_id, serial);
  if (attempt == nullptr) return;
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  map.state = TaskState::kRunning;
  attempt->start_time = sim_->Now();
  if (map.start_time == 0 || attempt->start_time < map.start_time) {
    map.start_time = attempt->start_time;
  }
  if (result_.first_map_start < 0 ||
      attempt->start_time < result_.first_map_start) {
    result_.first_map_start = attempt->start_time;
  }
  if (conf_.read_input_from_dfs) {
    // Stream the split out of the DFS before map processing (the Sort
    // shape). Replica-local splits hit only the local disk.
    if (MapInputLocalTo(map_id, attempt->node)) ++result_.data_local_maps;
    const int64_t per_map_input =
        conf_.records_per_map * framed_record_bytes_;
    dfs_->ReadRange("/" + conf_.job_name + "/input",
                    per_map_input * map_id, per_map_input, attempt->node,
                    [this, map_id, serial](SimTime) {
                      RunMapSpill(map_id, serial, 0);
                    });
    return;
  }
  RunMapSpill(map_id, serial, 0);
}

void SimJobRunner::RunMapSpill(int map_id, int serial, int spill_index) {
  MapAttempt* attempt = LiveAttempt(map_id, serial);
  if (attempt == nullptr) return;
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  if (spill_index == attempt->fail_at_spill) {
    OnMapFailed(map_id, serial);
    return;
  }
  if (spill_index >= map.num_spills) {
    FinishMapMerge(map_id, serial);
    return;
  }
  const int64_t per_spill =
      (map.records + map.num_spills - 1) / map.num_spills;
  const int64_t start = static_cast<int64_t>(spill_index) * per_spill;
  const int64_t records = std::min(per_spill, map.records - start);
  const int64_t logical_bytes = static_cast<int64_t>(
      conf_.combiner_output_fraction *
      static_cast<double>(records * framed_record_bytes_));
  const int64_t bytes = static_cast<int64_t>(
      cost_.buffered_write_fraction * wire_factor_ *
      static_cast<double>(logical_bytes));
  double cpu = MapSpillCpuSeconds(map, records);
  if (conf_.combiner_output_fraction < 1.0) {
    cpu += static_cast<double>(records) * cost_.combine_cpu_per_record;
  }
  if (map_output_codec_ != MapOutputCodec::kNone) {
    cpu += static_cast<double>(logical_bytes) *
           cost_.CompressCpuPerByte(map_output_codec_);
  }
  cpu *= attempt->slow_factor;
  cluster_->RunCpu(
      attempt->node, cpu,
      [this, map_id, serial, spill_index, bytes](SimTime) {
        MapAttempt* live = LiveAttempt(map_id, serial);
        if (live == nullptr) return;
        cluster_->DiskIo(live->node, bytes,
                         [this, map_id, serial, spill_index](SimTime) {
                           RunMapSpill(map_id, serial, spill_index + 1);
                         });
      });
}

void SimJobRunner::FinishMapMerge(int map_id, int serial) {
  MapAttempt* attempt = LiveAttempt(map_id, serial);
  if (attempt == nullptr) return;
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  if (map.num_spills <= 1) {
    OnMapDone(map_id, serial);
    return;
  }
  // Merge pass: read every spill (page-cache hits excluded), write the
  // merged output (write-back throttled).
  const NodeState& node = nodes_[static_cast<size_t>(attempt->node)];
  const double stored_bytes =
      wire_factor_ * static_cast<double>(map.output_bytes);
  const double read_miss = CacheMissFraction(
      static_cast<double>(node.map_output_bytes) + stored_bytes);
  const int64_t merge_io =
      static_cast<int64_t>(read_miss * stored_bytes) +
      static_cast<int64_t>(cost_.buffered_write_fraction * stored_bytes);
  const double merge_cpu =
      (static_cast<double>(map.output_bytes) * cost_.merge_cpu_per_byte *
           type_factor_ +
       static_cast<double>(map.records) * cost_.merge_cpu_per_record) *
      attempt->slow_factor;
  cluster_->DiskIo(
      attempt->node, merge_io, [this, map_id, serial, merge_cpu](SimTime) {
        MapAttempt* live = LiveAttempt(map_id, serial);
        if (live == nullptr) return;
        cluster_->RunCpu(live->node, merge_cpu, [this, map_id,
                                                 serial](SimTime) {
          OnMapDone(map_id, serial);
        });
      });
}

void SimJobRunner::OnMapFailed(int map_id, int serial) {
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  MRMB_LOG(Info) << "map " << map_id << " attempt serial " << serial
                 << " failed";
  int failed_node = -1;
  auto it = map.active_attempts.find(serial);
  if (it != map.active_attempts.end()) {
    failed_node = it->second.node;
    result_.wasted_attempt_seconds +=
        ToSeconds(sim_->Now() - it->second.assign_time);
  }
  ReleaseMapAttempt(map_id, serial);
  RecordTaskFailure(failed_node);
  if (map.state == TaskState::kDone) return;
  if (!map.active_attempts.empty()) {
    // A speculative sibling is still running; let it finish the task.
    return;
  }
  map.state = TaskState::kPending;
  map.backup_enqueued = false;
  if (map.attempts >= conf_.max_task_attempts) {
    AbortJob("map task " + std::to_string(map_id) + " failed " +
             std::to_string(map.attempts) + " attempts");
    return;
  }
  if (job_running_) {
    pending_maps_.push_back(map_id);
    CheckSchedulableOrAbort();
  }
}

void SimJobRunner::OnMapDone(int map_id, int serial) {
  MapAttempt* attempt = LiveAttempt(map_id, serial);
  if (attempt == nullptr) return;
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  map.state = TaskState::kDone;
  map.node = attempt->node;
  map.finish_time = sim_->Now();
  result_.last_map_finish =
      std::max(result_.last_map_finish, map.finish_time);
  ++completed_maps_;
  map.last_run_seconds = ToSeconds(map.finish_time - attempt->start_time);
  completed_map_duration_sum_ += map.last_run_seconds;
  map.fetch_failures = 0;
  NodeState& node = nodes_[static_cast<size_t>(attempt->node)];
  node.map_output_bytes +=
      static_cast<int64_t>(wire_factor_ * static_cast<double>(map.output_bytes));
  ReleaseMapAttempt(map_id, serial);
  // Kill any speculative sibling; it unwinds at its next step boundary.
  for (auto& [other_serial, other] : map.active_attempts) {
    other.killed = true;
  }
  // Feed every reducer that is already shuffling.
  for (ReduceTask& reduce : reduces_) {
    if (reduce.state == TaskState::kRunning && !reduce.merge_started) {
      QueueFetch(reduce.id, map_id);
      PumpFetches(reduce.id);
    }
  }
}

// ---------------------------------------------------------------------
// Shuffle + reduce
// ---------------------------------------------------------------------

SimJobRunner::ReduceTask* SimJobRunner::LiveReduce(int reduce_id,
                                                   int serial) {
  if (!job_running_) return nullptr;
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  if (reduce.serial != serial) return nullptr;  // attempt died; unwind
  return &reduce;
}

void SimJobRunner::StartReduce(int reduce_id, int serial) {
  ReduceTask* reduce = LiveReduce(reduce_id, serial);
  if (reduce == nullptr || reduce->state != TaskState::kAssigned) return;
  reduce->state = TaskState::kRunning;
  reduce->start_time = sim_->Now();
  if (reduce->fail_on_start) {
    // Injected container crash before the shuffle begins.
    FailReduceAttempt(reduce_id, /*node_loss=*/false);
    return;
  }
  for (const MapTask& map : maps_) {
    if (map.state == TaskState::kDone) QueueFetch(reduce_id, map.id);
  }
  PumpFetches(reduce_id);
}

void SimJobRunner::FailReduceAttempt(int reduce_id, bool node_loss) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  MRMB_LOG(Info) << "reduce " << reduce_id << " attempt " << reduce.attempts
                 << (node_loss ? " killed (node loss) on node "
                               : " failed on node ")
                 << reduce.node;
  const int old_node = reduce.node;
  result_.wasted_attempt_seconds +=
      ToSeconds(sim_->Now() - reduce.assign_time);
  NodeState& node = nodes_[static_cast<size_t>(old_node)];
  if (node.alive) {
    if (conf_.scheduler == SchedulerKind::kMrv1) {
      ++node.free_reduce_slots;
    } else {
      ++node.free_containers;
    }
  }
  // Retire the attempt: in-flight fetch/spill/merge callbacks carry the old
  // serial and unwind against LiveReduce.
  ++reduce.serial;
  reduce.state = TaskState::kPending;
  reduce.node = -1;
  reduce.pending_fetches.clear();
  reduce.fetch_state.assign(static_cast<size_t>(conf_.num_maps),
                            FetchState::kNone);
  reduce.fetch_fail_count.assign(static_cast<size_t>(conf_.num_maps), 0);
  reduce.active_fetches = 0;
  reduce.fetches_done = 0;
  reduce.fetched_bytes = 0;
  reduce.in_memory_bytes = 0;
  reduce.spilled_bytes = 0;
  reduce.outstanding_spill_ios = 0;
  reduce.merge_started = false;
  if (!node_loss) {
    RecordTaskFailure(old_node);
    if (reduce.attempts >= conf_.max_task_attempts) {
      AbortJob("reduce task " + std::to_string(reduce_id) + " failed " +
               std::to_string(reduce.attempts) + " attempts");
      return;
    }
  }
  if (job_running_) {
    pending_reduces_.push_back(reduce_id);
    CheckSchedulableOrAbort();
  }
}

void SimJobRunner::QueueFetch(int reduce_id, int map_id) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  FetchState& fs = reduce.fetch_state[static_cast<size_t>(map_id)];
  if (fs != FetchState::kNone) return;
  const MapTask& map = maps_[static_cast<size_t>(map_id)];
  fs = FetchState::kQueued;
  reduce.pending_fetches.push_back(
      Fetch{map_id, map.bytes_for_reduce[static_cast<size_t>(reduce_id)],
            map.generation});
}

void SimJobRunner::PumpFetches(int reduce_id) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  if (reduce.state != TaskState::kRunning || reduce.merge_started) return;
  while (reduce.active_fetches < conf_.parallel_copies &&
         !reduce.pending_fetches.empty()) {
    Fetch fetch = reduce.pending_fetches.front();
    reduce.pending_fetches.pop_front();
    const MapTask& map = maps_[static_cast<size_t>(fetch.map)];
    FetchState& fs = reduce.fetch_state[static_cast<size_t>(fetch.map)];
    // Drop fetches whose target output no longer exists (the map is
    // re-executing) or is already at the reducer.
    if (fetch.generation != map.generation ||
        map.state != TaskState::kDone || fs == FetchState::kFetched) {
      if (fs == FetchState::kQueued) fs = FetchState::kNone;
      continue;
    }
    fs = FetchState::kInFlight;
    ++reduce.active_fetches;
    BeginFetch(reduce_id, fetch);
  }
}

void SimJobRunner::BeginFetch(int reduce_id, Fetch fetch) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  const MapTask& map = maps_[static_cast<size_t>(fetch.map)];
  const int src = map.node;
  const int dst = reduce.node;
  const int serial = reduce.serial;
  const int64_t bytes = fetch.bytes;
  const NetworkProfile& net = cluster_->spec().network;

  if (result_.first_fetch_start < 0) result_.first_fetch_start = sim_->Now();

  // A copier talking to a dead server — or losing the probabilistic
  // fetch-failure draw (flaky NIC, dropped connection) — burns the fetch
  // timeout and reports the failure.
  const bool server_dead = !nodes_[static_cast<size_t>(src)].alive;
  if (server_dead || (conf_.fault_plan.fetch_failure_prob > 0 &&
                      fault_rng_.Bernoulli(
                          conf_.fault_plan.fetch_failure_prob))) {
    sim_->After(FromSeconds(conf_.fetch_timeout),
                [this, reduce_id, serial, map_id = fetch.map,
                 generation = fetch.generation] {
                  OnFetchFailed(reduce_id, serial, map_id, generation);
                });
    return;
  }

  // Compressed map output moves fewer bytes over disk and wire.
  const auto wire_bytes =
      static_cast<int64_t>(wire_factor_ * static_cast<double>(bytes));

  // Page-cache model: a node whose total map output exceeds its cache
  // serves the excess fraction of every fetch from disk.
  const double cache_bytes =
      cost_.page_cache_fraction *
      static_cast<double>(cluster_->spec().node.memory_bytes);
  const double node_output =
      static_cast<double>(nodes_[static_cast<size_t>(src)].map_output_bytes);
  const double disk_fraction =
      node_output <= cache_bytes ? 0.0 : 1.0 - cache_bytes / node_output;
  const auto disk_bytes =
      static_cast<int64_t>(disk_fraction * static_cast<double>(wire_bytes));

  // The three legs of a fetch — sender stack CPU, wire transfer, receiver
  // stack CPU — run pipelined; the fetch completes when all have finished.
  // The optional disk read happens before the wire leg (cache miss).
  auto join = std::make_shared<int>(3);
  auto arm_done = [this, reduce_id, serial, map_id = fetch.map,
                   generation = fetch.generation, wire_bytes,
                   join](SimTime) {
    if (--*join == 0) {
      OnFetchArrived(reduce_id, serial, map_id, generation, wire_bytes);
    }
  };

  const double wire = static_cast<double>(wire_bytes);
  cluster_->RunCpu(
      src, cost_.fetch_setup_cpu / 2 + wire * net.sender_cpu_per_byte,
      arm_done);
  double receiver_cpu =
      cost_.fetch_setup_cpu / 2 + wire * net.receiver_cpu_per_byte;
  if (map_output_codec_ != MapOutputCodec::kNone) {
    // Inflate back to logical bytes on arrival.
    receiver_cpu += static_cast<double>(bytes) *
                    cost_.DecompressCpuPerByte(map_output_codec_);
  }
  cluster_->RunCpu(dst, receiver_cpu, arm_done);
  if (disk_bytes > 0) {
    cluster_->DiskIo(src, disk_bytes, [this, src, dst, wire_bytes,
                                       arm_done](SimTime) {
      cluster_->Transfer(src, dst, wire_bytes, arm_done);
    });
  } else {
    cluster_->Transfer(src, dst, wire_bytes, arm_done);
  }
}

void SimJobRunner::OnFetchArrived(int reduce_id, int serial, int map_id,
                                  int generation, int64_t bytes) {
  ReduceTask* reduce = LiveReduce(reduce_id, serial);
  if (reduce == nullptr) return;
  --reduce->active_fetches;
  FetchState& fs = reduce->fetch_state[static_cast<size_t>(map_id)];
  const MapTask& map = maps_[static_cast<size_t>(map_id)];
  if (generation != map.generation) {
    // The source output was invalidated while the bytes were in flight;
    // discard them and wait for the re-executed map to feed us again.
    if (fs == FetchState::kInFlight) fs = FetchState::kNone;
    PumpFetches(reduce_id);
    return;
  }
  fs = FetchState::kFetched;
  ++reduce->fetches_done;
  reduce->fetch_fail_count[static_cast<size_t>(map_id)] = 0;
  reduce->fetched_bytes += bytes;
  reduce->in_memory_bytes += bytes;
  if (reduce->in_memory_bytes > reduce_memory_limit_) {
    // In-memory merger: flush the whole buffer to a disk segment.
    const int64_t spill = reduce->in_memory_bytes;
    reduce->in_memory_bytes = 0;
    reduce->spilled_bytes += spill;
    result_.reduce_side_spill_bytes += spill;
    NodeState& node = nodes_[static_cast<size_t>(reduce->node)];
    node.reduce_spill_bytes += spill;
    int64_t disk_bytes = ChargeBufferedWrite(spill, &node.reduce_dirty_bytes);
    // The RDMA engine's pipelined in-memory merge (MRoIB/HOMR) sends most
    // segments onward without materializing them on disk.
    if (cluster_->spec().network.rdma) {
      disk_bytes = static_cast<int64_t>(
          static_cast<double>(disk_bytes) *
          (1.0 - cost_.rdma_overlap_fraction));
    }
    ++reduce->outstanding_spill_ios;
    cluster_->DiskIo(reduce->node, disk_bytes,
                     [this, reduce_id, serial](SimTime) {
      ReduceTask* r = LiveReduce(reduce_id, serial);
      if (r == nullptr) return;
      --r->outstanding_spill_ios;
      MaybeStartMerge(reduce_id);
    });
  }
  result_.last_fetch_finish =
      std::max(result_.last_fetch_finish, sim_->Now());
  PumpFetches(reduce_id);
  MaybeStartMerge(reduce_id);
}

void SimJobRunner::OnFetchFailed(int reduce_id, int serial, int map_id,
                                 int generation) {
  ReduceTask* reduce = LiveReduce(reduce_id, serial);
  if (reduce == nullptr) return;
  --reduce->active_fetches;
  FetchState& fs = reduce->fetch_state[static_cast<size_t>(map_id)];
  MapTask& map = maps_[static_cast<size_t>(map_id)];
  if (generation != map.generation || map.state != TaskState::kDone) {
    // The output is already being re-executed; nothing to retry against.
    if (fs == FetchState::kInFlight) fs = FetchState::kNone;
    PumpFetches(reduce_id);
    return;
  }
  ++result_.fetch_retries;
  const int consecutive =
      ++reduce->fetch_fail_count[static_cast<size_t>(map_id)];
  ++map.fetch_failures;
  MRMB_LOG(Debug) << "fetch of map " << map_id << " by reduce " << reduce_id
                  << " failed (" << map.fetch_failures
                  << " reports); t=" << ToSeconds(sim_->Now());
  if (map.fetch_failures >= conf_.max_fetch_failures) {
    // Enough copiers reported this output unfetchable: the JobTracker
    // declares it lost and re-runs the map. Waiting reducers are re-fed
    // when the new attempt completes.
    fs = FetchState::kNone;
    InvalidateMapOutput(map_id, "fetch failures");
    PumpFetches(reduce_id);
    return;
  }
  // Exponential backoff before the retry, capped: 1x, 2x, 4x... of the
  // base backoff.
  const double backoff = std::min(
      conf_.fetch_retry_backoff_max,
      conf_.fetch_retry_backoff *
          std::pow(2.0, static_cast<double>(consecutive - 1)));
  fs = FetchState::kQueued;
  sim_->After(FromSeconds(backoff), [this, reduce_id, serial, map_id,
                                     generation] {
    ReduceTask* r = LiveReduce(reduce_id, serial);
    if (r == nullptr) return;
    FetchState& state = r->fetch_state[static_cast<size_t>(map_id)];
    const MapTask& m = maps_[static_cast<size_t>(map_id)];
    if (state != FetchState::kQueued) return;
    if (generation != m.generation || m.state != TaskState::kDone) {
      state = FetchState::kNone;
      return;
    }
    r->pending_fetches.push_back(
        Fetch{map_id, m.bytes_for_reduce[static_cast<size_t>(reduce_id)],
              generation});
    PumpFetches(reduce_id);
  });
  PumpFetches(reduce_id);
}

void SimJobRunner::MaybeStartMerge(int reduce_id) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  if (reduce.merge_started || reduce.state != TaskState::kRunning) return;
  if (reduce.fetches_done < conf_.num_maps) return;
  if (reduce.outstanding_spill_ios > 0) return;
  reduce.merge_started = true;
  StartReduceMerge(reduce_id);
}

void SimJobRunner::StartReduceMerge(int reduce_id) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  const int serial = reduce.serial;
  // The RDMA-enhanced engine (MRoIB) pipelines merge with the fetch phase,
  // hiding most of this work; IPoIB/Ethernet engines pay it after shuffle.
  const double visible = cluster_->spec().network.rdma
                             ? 1.0 - cost_.rdma_overlap_fraction
                             : 1.0;
  // Read back the on-disk segments; reads of data this node just spilled
  // mostly hit the page cache until the node's spill set outgrows it.
  const double read_miss = CacheMissFraction(static_cast<double>(
      nodes_[static_cast<size_t>(reduce.node)].reduce_spill_bytes));
  const auto read_back = static_cast<int64_t>(
      static_cast<double>(reduce.spilled_bytes) * read_miss * visible);
  const double merge_cpu =
      (static_cast<double>(reduce.input_bytes) * cost_.merge_cpu_per_byte *
           type_factor_ +
       static_cast<double>(reduce.input_records) *
           cost_.merge_cpu_per_record) *
      visible * reduce.slow_factor;
  cluster_->DiskIo(reduce.node, read_back, [this, reduce_id, serial,
                                            merge_cpu](SimTime) {
    ReduceTask* r = LiveReduce(reduce_id, serial);
    if (r == nullptr) return;
    cluster_->RunCpu(r->node, merge_cpu, [this, reduce_id, serial](SimTime) {
      if (LiveReduce(reduce_id, serial) == nullptr) return;
      RunReduceFunction(reduce_id);
    });
  });
}

void SimJobRunner::RunReduceFunction(int reduce_id) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  const int serial = reduce.serial;
  const double cpu =
      (static_cast<double>(reduce.input_records) *
           cost_.reduce_cpu_per_record +
       static_cast<double>(reduce.input_bytes) * cost_.reduce_cpu_per_byte *
           type_factor_) *
      reduce.slow_factor;
  cluster_->RunCpu(reduce.node, cpu, [this, reduce_id, serial](SimTime) {
    ReduceTask* r = LiveReduce(reduce_id, serial);
    if (r == nullptr) return;
    if (conf_.write_output_to_dfs) {
      const auto output_bytes = static_cast<int64_t>(
          conf_.output_to_input_ratio *
          static_cast<double>(r->input_bytes));
      dfs_->WriteFile("/" + conf_.job_name + "/part-r-" +
                          std::to_string(reduce_id),
                      output_bytes, r->node,
                      [this, reduce_id, serial](SimTime) {
                        if (LiveReduce(reduce_id, serial) == nullptr) return;
                        OnReduceDone(reduce_id);
                      });
      return;
    }
    OnReduceDone(reduce_id);
  });
}

void SimJobRunner::OnReduceDone(int reduce_id) {
  ReduceTask& reduce = reduces_[static_cast<size_t>(reduce_id)];
  reduce.state = TaskState::kDone;
  reduce.finish_time = sim_->Now();
  ++completed_reduces_;
  NodeState& node = nodes_[static_cast<size_t>(reduce.node)];
  if (node.alive) {
    if (conf_.scheduler == SchedulerKind::kMrv1) {
      ++node.free_reduce_slots;
    } else {
      ++node.free_containers;
    }
  }
  FinishJobIfDone();
}

int SimJobRunner::NodeOf(int reduce_id) const {
  return reduces_[static_cast<size_t>(reduce_id)].node;
}

int64_t SimJobRunner::ChargeBufferedWrite(int64_t bytes,
                                          int64_t* dirty_pool) const {
  const int64_t dirty_limit = static_cast<int64_t>(
      cost_.dirty_limit_fraction *
      static_cast<double>(cluster_->spec().node.memory_bytes));
  const int64_t absorbed_span = std::max<int64_t>(
      0, std::min(bytes, dirty_limit - *dirty_pool));
  const int64_t blocking_span = bytes - absorbed_span;
  *dirty_pool += bytes;
  return static_cast<int64_t>(cost_.buffered_write_fraction *
                              static_cast<double>(absorbed_span)) +
         blocking_span;
}

double SimJobRunner::CacheMissFraction(double working_set_bytes) const {
  const double cache =
      cost_.page_cache_fraction *
      static_cast<double>(cluster_->spec().node.memory_bytes);
  if (working_set_bytes <= cache || working_set_bytes <= 0) return 0.0;
  return 1.0 - cache / working_set_bytes;
}

void SimJobRunner::FinishJobIfDone() {
  if (completed_reduces_ != conf_.num_reduces) return;
  job_running_ = false;
  result_.finish_time = sim_->Now();
  if (monitor_ != nullptr) monitor_->Stop();
}

void SimJobRunner::AbortJob(const std::string& reason) {
  if (job_failed_) return;
  job_failed_ = true;
  failure_reason_ = reason;
  job_running_ = false;
  // Nothing will be scheduled again; in-flight continuations unwind
  // against LiveAttempt/LiveReduce and the queue drains.
  pending_maps_.clear();
  pending_reduces_.clear();
  if (monitor_ != nullptr) monitor_->Stop();
}

}  // namespace mrmb
