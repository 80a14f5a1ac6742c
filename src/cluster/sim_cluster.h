// SimCluster: the simulated machine room.
//
// Owns a Simulator plus fluid models for the three resources a MapReduce
// task consumes:
//   * CPU   — processor sharing per node: each piece of work runs on at most
//             one core; when runnable work exceeds the core count the node's
//             cores are shared max-min fairly.
//   * Disk  — all streams on a node share its aggregate disk bandwidth, plus
//             a fixed seek charge per I/O.
//   * Network — a Fabric (see net/fabric.h).
//
// All callbacks fire from the event loop; SimCluster is single-threaded by
// design (determinism).

#ifndef MRMB_CLUSTER_SIM_CLUSTER_H_
#define MRMB_CLUSTER_SIM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster_spec.h"
#include "net/fabric.h"
#include "sim/fairshare.h"
#include "sim/fluid.h"
#include "sim/simulator.h"

namespace mrmb {

class SimCluster {
 public:
  using DoneFn = std::function<void(SimTime)>;

  explicit SimCluster(ClusterSpec spec);

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  Simulator* sim() { return &sim_; }
  Fabric* fabric() { return fabric_.get(); }
  const ClusterSpec& spec() const { return spec_; }
  int num_nodes() const { return spec_.num_slaves; }

  // Runs `cpu_seconds` of single-threaded compute on `node`. The work
  // occupies at most one core; wall time stretches when the node is
  // oversubscribed. `cpu_seconds` is in reference-core seconds; faster
  // nodes (core_speed > 1) finish sooner.
  void RunCpu(int node, double cpu_seconds, DoneFn done);

  // Reads or writes `bytes` on the node's local disks (direction is
  // irrelevant to the shared-bandwidth model; the seek charge applies once).
  void DiskIo(int node, int64_t bytes, DoneFn done);

  // Network transfer convenience forwarding to the Fabric.
  void Transfer(int src, int dst, int64_t bytes, DoneFn done) {
    fabric_->Transfer(src, dst, bytes, std::move(done));
  }

  // Scales `node`'s NIC capacity from now on (fault injection: degraded or
  // repaired links). Forwards to the Fabric; in-flight transfers re-pace.
  void SetLinkFactor(int node, double factor) {
    fabric_->SetLinkFactor(node, factor);
  }
  double LinkFactor(int node) const { return fabric_->LinkFactor(node); }

  // --- Accounting for resource monitors -------------------------------

  // Cumulative core-seconds of CPU consumed on `node` (reference-core
  // normalized work divided by core speed, i.e. real busy time).
  double CpuBusySeconds(int node);
  // Cumulative bytes moved through the node's disks.
  double DiskBytes(int node);
  // Cumulative bytes received from the network.
  double RxBytes(int node) { return fabric_->RxBytes(node); }
  double TxBytes(int node) { return fabric_->TxBytes(node); }

 private:
  // Max-min sharing of one per-node resource (cores or disks): node n is
  // link n, and every work item on a node is capped at the same rate, so
  // each node's items form one flow class.
  class PerNodeSolver {
   public:
    PerNodeSolver() = default;
    PerNodeSolver(int num_nodes, double node_capacity, double item_cap);
    void Solve(std::span<FluidFlow> flows);

   private:
    double item_cap_ = kUnlimitedRate;
    MaxMinProblem problem_;
    MaxMinSolver solver_;
    std::vector<int32_t> node_class_;  // node -> class, or -1
  };

  ClusterSpec spec_;
  Simulator sim_;
  std::unique_ptr<Fabric> fabric_;
  // CPU: capacity cores * core_speed reference-core units per second, each
  // item capped at one core. Disk: shared bandwidth, no per-item cap.
  PerNodeSolver cpu_solver_;
  PerNodeSolver disk_solver_;
  std::unique_ptr<FluidPool> cpu_pool_;   // units: reference-core seconds
  std::unique_ptr<FluidPool> disk_pool_;  // units: bytes
};

}  // namespace mrmb

#endif  // MRMB_CLUSTER_SIM_CLUSTER_H_
