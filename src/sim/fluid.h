// Event-driven fluid resource pool.
//
// A FluidPool tracks a set of concurrent "flows", each with an amount of
// remaining work (bytes, core-seconds, ...). Whenever the set of active
// flows changes, a user-supplied rate solver recomputes each flow's service
// rate (units/second); the pool then schedules exactly one simulator event
// for the earliest completion. This is the standard fluid approximation used
// by flow-level network simulators, and we reuse it for processor sharing
// and shared-disk bandwidth.
//
// The pool also keeps cumulative per-tag "work delivered" counters so that
// resource monitors can sample throughput/utilization by differencing.
// Flows are stored flat in FlowId (= start) order, which is also the order
// the solver sees them in; tags index flat per-node counters.

#ifndef MRMB_SIM_FLUID_H_
#define MRMB_SIM_FLUID_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/simulator.h"

namespace mrmb {

using FlowId = uint64_t;

// One active flow. Exposed to the rate solver, which must fill in `rate`.
struct FluidFlow {
  FlowId id = 0;
  // Work still to be served, in pool units (e.g. bytes).
  double remaining = 0;
  // Service rate in units/second; assigned by the solver. Zero is legal
  // (flow is stalled until membership changes).
  double rate = 0;
  // User tags (>= 0), conventionally source/destination node ids. The
  // solver uses them to build capacity constraints; the accounting uses them
  // to attribute delivered work.
  int64_t tag_src = 0;
  int64_t tag_dst = 0;
};

class FluidPool {
 public:
  // The solver assigns `rate` to every flow in `flows` (in FlowId order).
  // Called under a consistent snapshot (all `remaining` values already
  // advanced to Now()).
  using RateSolver = std::function<void(std::span<FluidFlow> flows)>;
  // Completion callback; receives the simulation time of completion.
  using CompletionFn = std::function<void(SimTime)>;

  FluidPool(Simulator* sim, RateSolver solver);
  ~FluidPool();

  FluidPool(const FluidPool&) = delete;
  FluidPool& operator=(const FluidPool&) = delete;

  // Starts a flow with `work` units (> 0) and tags >= 0. `on_complete`
  // fires from the event loop when the work drains. Returns a handle usable
  // with Cancel().
  FlowId Start(double work, int64_t tag_src, int64_t tag_dst,
               CompletionFn on_complete);

  // Cancels an in-flight flow; its completion callback never fires. Returns
  // false if the flow already completed or was cancelled.
  bool Cancel(FlowId id);

  // Remaining work of an active flow (advanced to Now()); 0 if unknown.
  double Remaining(FlowId id);

  // Re-runs the rate solver immediately. Call after an external change to
  // the capacities the solver consults (e.g. a degraded link) so in-flight
  // flows are re-paced from Now() instead of from their next membership
  // change.
  void Poke();

  size_t active_flows() const { return flows_.size(); }

  // Cumulative units delivered to flows whose tag_dst == tag (since pool
  // creation, advanced to Now()).
  double DeliveredTo(int64_t tag);
  // Cumulative units served from flows whose tag_src == tag.
  double ServedFrom(int64_t tag);

  // Total units delivered across all flows.
  double TotalDelivered();

 private:
  // Integrates rates from last_update_ to Now() into remaining/accounting.
  void AdvanceToNow();
  // Runs the solver and schedules the next completion event.
  void RecomputeAndSchedule();
  // Fires completions that are due at Now().
  void OnCompletionEvent();
  // Index of flow `id` in flows_, or -1.
  std::ptrdiff_t Find(FlowId id) const;

  Simulator* sim_;
  RateSolver solver_;
  SimTime last_update_ = 0;
  EventId pending_event_ = 0;
  FlowId next_flow_id_ = 1;
  // Active flows in FlowId order, and each one's completion callback.
  std::vector<FluidFlow> flows_;
  std::vector<CompletionFn> on_complete_;
  // Cumulative work per tag, indexed by tag.
  std::vector<double> delivered_to_;
  std::vector<double> served_from_;
  double total_delivered_ = 0;
};

}  // namespace mrmb

#endif  // MRMB_SIM_FLUID_H_
