#include "cluster/sim_cluster.h"

#include <utility>

#include "common/logging.h"
#include "sim/fairshare.h"

namespace mrmb {

SimCluster::SimCluster(ClusterSpec spec) : spec_(std::move(spec)) {
  MRMB_CHECK_GT(spec_.num_slaves, 0);
  MRMB_CHECK_GT(spec_.node.cores, 0);
  MRMB_CHECK_GT(spec_.node.core_speed, 0.0);
  MRMB_CHECK_GT(spec_.node.disk_bandwidth_Bps, 0.0);
  cpu_solver_ = PerNodeSolver(
      spec_.num_slaves,
      static_cast<double>(spec_.node.cores) * spec_.node.core_speed,
      spec_.node.core_speed);
  disk_solver_ = PerNodeSolver(spec_.num_slaves,
                               spec_.node.disk_bandwidth_Bps, kUnlimitedRate);
  fabric_ = std::make_unique<Fabric>(&sim_, spec_.num_slaves, spec_.network,
                                     spec_.oversubscription);
  cpu_pool_ = std::make_unique<FluidPool>(
      &sim_, [this](std::span<FluidFlow> flows) { cpu_solver_.Solve(flows); });
  disk_pool_ = std::make_unique<FluidPool>(
      &sim_,
      [this](std::span<FluidFlow> flows) { disk_solver_.Solve(flows); });
}

void SimCluster::RunCpu(int node, double cpu_seconds, DoneFn done) {
  MRMB_CHECK_GE(node, 0);
  MRMB_CHECK_LT(node, spec_.num_slaves);
  MRMB_CHECK(done != nullptr);
  cpu_pool_->Start(cpu_seconds, node, node, std::move(done));
}

void SimCluster::DiskIo(int node, int64_t bytes, DoneFn done) {
  MRMB_CHECK_GE(node, 0);
  MRMB_CHECK_LT(node, spec_.num_slaves);
  MRMB_CHECK(done != nullptr);
  const SimTime seek = spec_.node.disk_seek;
  // Seek first, then stream through the shared-bandwidth pool.
  sim_.After(seek, [this, node, bytes, done = std::move(done)]() mutable {
    disk_pool_->Start(static_cast<double>(bytes), node, node,
                      std::move(done));
  });
}

double SimCluster::CpuBusySeconds(int node) {
  // Work units are reference-core seconds; busy wall-clock core time is
  // work / core_speed.
  return cpu_pool_->DeliveredTo(node) / spec_.node.core_speed;
}

double SimCluster::DiskBytes(int node) {
  return disk_pool_->DeliveredTo(node);
}

SimCluster::PerNodeSolver::PerNodeSolver(int num_nodes, double node_capacity,
                                         double item_cap)
    : item_cap_(item_cap) {
  problem_.link_capacity.assign(static_cast<size_t>(num_nodes),
                                node_capacity);
  node_class_.assign(static_cast<size_t>(num_nodes), -1);
}

void SimCluster::PerNodeSolver::Solve(std::span<FluidFlow> flows) {
  problem_.ClearClasses();
  for (const FluidFlow& flow : flows) {
    int32_t& cls = node_class_[static_cast<size_t>(flow.tag_src)];
    if (cls < 0) {
      cls = problem_.AddClass({static_cast<int32_t>(flow.tag_src)}, item_cap_,
                              0);
    }
    ++problem_.multiplicity[static_cast<size_t>(cls)];
  }
  const std::vector<double>& rates = solver_.Solve(problem_);
  for (FluidFlow& flow : flows) {
    const auto node = static_cast<size_t>(flow.tag_src);
    flow.rate = rates[static_cast<size_t>(node_class_[node])];
  }
  for (const FluidFlow& flow : flows) {
    node_class_[static_cast<size_t>(flow.tag_src)] = -1;
  }
}

}  // namespace mrmb
