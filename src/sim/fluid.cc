#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace mrmb {

namespace {
// A flow is complete when its remaining work is below this fraction of one
// unit-of-work-plus-one; at event time the scheduled completion instant makes
// the minimum flow's remainder collapse to ~0 up to rounding.
constexpr double kCompleteEps = 1e-6;

bool IsComplete(const FluidFlow& flow) {
  return flow.remaining <= kCompleteEps;
}
}  // namespace

FluidPool::FluidPool(Simulator* sim, RateSolver solver)
    : sim_(sim), solver_(std::move(solver)) {
  MRMB_CHECK(sim_ != nullptr);
  MRMB_CHECK(solver_ != nullptr);
  last_update_ = sim_->Now();
}

FluidPool::~FluidPool() {
  if (pending_event_ != 0) sim_->Cancel(pending_event_);
}

FlowId FluidPool::Start(double work, int64_t tag_src, int64_t tag_dst,
                        CompletionFn on_complete) {
  MRMB_CHECK(on_complete != nullptr);
  if (work <= 0) {
    // Degenerate flow: completes "immediately" (still via the event loop so
    // callers never observe re-entrant completion).
    sim_->After(0, [cb = std::move(on_complete), sim = sim_] {
      cb(sim->Now());
    });
    return 0;
  }
  MRMB_CHECK_GE(tag_src, 0);
  MRMB_CHECK_GE(tag_dst, 0);
  AdvanceToNow();
  const size_t tags = static_cast<size_t>(std::max(tag_src, tag_dst)) + 1;
  if (tags > delivered_to_.size()) {
    delivered_to_.resize(tags, 0.0);
    served_from_.resize(tags, 0.0);
  }
  const FlowId id = next_flow_id_++;
  FluidFlow flow;
  flow.id = id;
  flow.remaining = work;
  flow.tag_src = tag_src;
  flow.tag_dst = tag_dst;
  flows_.push_back(flow);
  on_complete_.push_back(std::move(on_complete));
  RecomputeAndSchedule();
  return id;
}

std::ptrdiff_t FluidPool::Find(FlowId id) const {
  // Ids are handed out in increasing order and flows_ keeps start order.
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const FluidFlow& flow, FlowId key) { return flow.id < key; });
  if (it == flows_.end() || it->id != id) return -1;
  return it - flows_.begin();
}

bool FluidPool::Cancel(FlowId id) {
  const std::ptrdiff_t index = Find(id);
  if (index < 0) return false;
  AdvanceToNow();
  flows_.erase(flows_.begin() + index);
  on_complete_.erase(on_complete_.begin() + index);
  RecomputeAndSchedule();
  return true;
}

double FluidPool::Remaining(FlowId id) {
  AdvanceToNow();
  const std::ptrdiff_t index = Find(id);
  return index < 0 ? 0.0 : flows_[static_cast<size_t>(index)].remaining;
}

void FluidPool::Poke() {
  AdvanceToNow();
  RecomputeAndSchedule();
}

double FluidPool::DeliveredTo(int64_t tag) {
  AdvanceToNow();
  return tag >= 0 && static_cast<size_t>(tag) < delivered_to_.size()
             ? delivered_to_[static_cast<size_t>(tag)]
             : 0.0;
}

double FluidPool::ServedFrom(int64_t tag) {
  AdvanceToNow();
  return tag >= 0 && static_cast<size_t>(tag) < served_from_.size()
             ? served_from_[static_cast<size_t>(tag)]
             : 0.0;
}

double FluidPool::TotalDelivered() {
  AdvanceToNow();
  return total_delivered_;
}

void FluidPool::AdvanceToNow() {
  const SimTime now = sim_->Now();
  if (now == last_update_) return;
  MRMB_CHECK_GT(now, last_update_);
  const double dt = ToSeconds(now - last_update_);
  for (FluidFlow& flow : flows_) {
    if (flow.rate <= 0) continue;
    const double delta = std::min(flow.remaining, flow.rate * dt);
    flow.remaining -= delta;
    delivered_to_[static_cast<size_t>(flow.tag_dst)] += delta;
    served_from_[static_cast<size_t>(flow.tag_src)] += delta;
    total_delivered_ += delta;
  }
  last_update_ = now;
}

void FluidPool::RecomputeAndSchedule() {
  if (pending_event_ != 0) {
    sim_->Cancel(pending_event_);
    pending_event_ = 0;
  }
  if (flows_.empty()) return;

  solver_(std::span<FluidFlow>(flows_));

  // Earliest completion among flows that are being served (or already done).
  SimTime earliest = -1;
  for (const FluidFlow& flow : flows_) {
    MRMB_CHECK_GE(flow.rate, 0.0) << "solver produced negative rate";
    SimTime finish;
    if (IsComplete(flow)) {
      finish = 0;
    } else if (flow.rate > 0) {
      const double seconds = flow.remaining / flow.rate;
      finish = std::max<SimTime>(
          1, static_cast<SimTime>(
                 std::ceil(seconds * static_cast<double>(kSecond))));
    } else {
      continue;  // Stalled; will be rescheduled on next membership change.
    }
    if (earliest < 0 || finish < earliest) earliest = finish;
  }
  if (earliest >= 0) {
    pending_event_ = sim_->After(earliest, [this] { OnCompletionEvent(); });
  }
}

void FluidPool::OnCompletionEvent() {
  pending_event_ = 0;
  AdvanceToNow();

  // Collect every flow that drained (rounding can complete several at once)
  // and compact the rest in place, keeping FlowId order.
  std::vector<CompletionFn> done;
  size_t kept = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    if (IsComplete(flows_[i])) {
      done.push_back(std::move(on_complete_[i]));
      continue;
    }
    if (kept != i) {
      flows_[kept] = flows_[i];
      on_complete_[kept] = std::move(on_complete_[i]);
    }
    ++kept;
  }
  flows_.resize(kept);
  on_complete_.resize(kept);
  RecomputeAndSchedule();
  const SimTime now = sim_->Now();
  for (CompletionFn& on_complete : done) on_complete(now);
}

}  // namespace mrmb
