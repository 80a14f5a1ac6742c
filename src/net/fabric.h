// Flow-level model of a switched cluster interconnect.
//
// Every node has a full-duplex NIC (independent ingress and egress capacity
// equal to the profile's application bandwidth). Concurrent transfers share
// the fabric max-min fairly, each constrained by its source's egress, its
// destination's ingress, and optionally an aggregate switch backplane
// (oversubscription < 1.0 models a blocking switch).
//
// A Transfer completes after
//     per_message_overhead + <fluid transfer under fair sharing> + latency.
// Host CPU cost per byte is *not* modeled here; the MapReduce simulation
// charges it to the task CPU via the profile's cpu_per_byte fields, so it
// contends with application compute exactly as a kernel TCP stack would.

#ifndef MRMB_NET_FABRIC_H_
#define MRMB_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/network_profile.h"
#include "sim/fairshare.h"
#include "sim/fluid.h"
#include "sim/simulator.h"

namespace mrmb {

class Fabric {
 public:
  using CompletionFn = std::function<void(SimTime)>;

  // `oversubscription` scales the aggregate backplane: 1.0 = full bisection
  // bandwidth (non-blocking switch), 0.5 = backplane carries only half of
  // the sum of NIC rates.
  Fabric(Simulator* sim, int num_nodes, NetworkProfile profile,
         double oversubscription = 1.0);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Starts transferring `bytes` from `src` to `dst`; `on_complete` fires
  // once the last byte has arrived (including latency). Local transfers
  // (src == dst) skip the fabric and complete after a fast memcpy-rate copy.
  void Transfer(int src, int dst, int64_t bytes, CompletionFn on_complete);

  // Cumulative payload bytes received by / sent from `node` (fluid view;
  // excludes in-flight remainder).
  double RxBytes(int node);
  double TxBytes(int node);

  // Scales `node`'s NIC capacity (both directions) by `factor` (> 0) from
  // the current simulated time onward; in-flight transfers are re-paced
  // immediately. Used by fault plans to model degraded or repaired links.
  void SetLinkFactor(int node, double factor);
  double LinkFactor(int node) const {
    return link_factor_[static_cast<size_t>(node)];
  }

  int num_nodes() const { return num_nodes_; }
  const NetworkProfile& profile() const { return profile_; }
  size_t active_transfers() const { return pool_->active_flows(); }

 private:
  // Rates all transfers between the same (src, dst) pair as one flow class.
  void Solve(std::span<FluidFlow> flows);

  Simulator* sim_;
  int num_nodes_;
  NetworkProfile profile_;
  double backplane_capacity_;  // bytes/sec; <= 0 disables the constraint.
  std::vector<double> link_factor_;  // per-node NIC capacity multiplier
  // Links: [0, n) egress per node, [n, 2n) ingress per node, optionally 2n
  // = switch backplane. Capacities follow link_factor_; classes are rebuilt
  // by every Solve().
  MaxMinProblem problem_;
  MaxMinSolver solver_;
  std::vector<int32_t> pair_class_;  // src * n + dst -> class, or -1
  std::vector<int32_t> flow_class_;  // per flow of the current Solve()
  std::unique_ptr<FluidPool> pool_;
};

}  // namespace mrmb

#endif  // MRMB_NET_FABRIC_H_
