#include "net/fabric.h"

#include <utility>

#include "common/logging.h"
#include "sim/fairshare.h"

namespace mrmb {

namespace {
// Rate used for node-local (loopback) "transfers": an in-memory copy.
constexpr double kLoopbackBytesPerSec = 6.0e9;
}  // namespace

Fabric::Fabric(Simulator* sim, int num_nodes, NetworkProfile profile,
               double oversubscription)
    : sim_(sim), num_nodes_(num_nodes), profile_(std::move(profile)) {
  MRMB_CHECK(sim_ != nullptr);
  MRMB_CHECK_GT(num_nodes_, 0);
  MRMB_CHECK_GT(profile_.raw_bandwidth_bps, 0.0);
  MRMB_CHECK_GT(oversubscription, 0.0);
  backplane_capacity_ = oversubscription >= 1.0
                            ? -1.0
                            : oversubscription * num_nodes_ *
                                  profile_.app_bandwidth_Bps();
  link_factor_.assign(static_cast<size_t>(num_nodes_), 1.0);
  const double nic = profile_.app_bandwidth_Bps();
  problem_.link_capacity.assign(static_cast<size_t>(2 * num_nodes_), nic);
  if (backplane_capacity_ > 0) {
    problem_.link_capacity.push_back(backplane_capacity_);
  }
  pair_class_.assign(static_cast<size_t>(num_nodes_) * num_nodes_, -1);
  pool_ = std::make_unique<FluidPool>(
      sim_, [this](std::span<FluidFlow> flows) { Solve(flows); });
}

void Fabric::Transfer(int src, int dst, int64_t bytes,
                      CompletionFn on_complete) {
  MRMB_CHECK_GE(src, 0);
  MRMB_CHECK_LT(src, num_nodes_);
  MRMB_CHECK_GE(dst, 0);
  MRMB_CHECK_LT(dst, num_nodes_);
  MRMB_CHECK_GE(bytes, 0);
  MRMB_CHECK(on_complete != nullptr);

  if (src == dst) {
    const SimTime copy_time = FromSeconds(
        static_cast<double>(bytes) / kLoopbackBytesPerSec);
    sim_->After(copy_time, [cb = std::move(on_complete), sim = sim_] {
      cb(sim->Now());
    });
    return;
  }

  const SimTime latency = profile_.latency;
  auto finish = [this, latency, cb = std::move(on_complete)](SimTime) {
    sim_->After(latency, [cb, sim = sim_] { cb(sim->Now()); });
  };
  // Sender-side fixed software overhead delays the first byte.
  sim_->After(profile_.per_message_overhead,
              [this, src, dst, bytes, finish = std::move(finish)] {
                pool_->Start(static_cast<double>(bytes), src, dst,
                             std::move(finish));
              });
}

double Fabric::RxBytes(int node) { return pool_->DeliveredTo(node); }
double Fabric::TxBytes(int node) { return pool_->ServedFrom(node); }

void Fabric::SetLinkFactor(int node, double factor) {
  MRMB_CHECK_GE(node, 0);
  MRMB_CHECK_LT(node, num_nodes_);
  MRMB_CHECK_GT(factor, 0.0);
  const auto n = static_cast<size_t>(node);
  link_factor_[n] = factor;
  const double capacity = profile_.app_bandwidth_Bps() * factor;
  problem_.link_capacity[n] = capacity;
  problem_.link_capacity[static_cast<size_t>(num_nodes_) + n] = capacity;
  pool_->Poke();
}

void Fabric::Solve(std::span<FluidFlow> flows) {
  const bool has_backplane = backplane_capacity_ > 0;
  const auto backplane = static_cast<int32_t>(2 * num_nodes_);
  problem_.ClearClasses();
  flow_class_.resize(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    const FluidFlow& flow = flows[i];
    int32_t& cls = pair_class_[static_cast<size_t>(
        flow.tag_src * num_nodes_ + flow.tag_dst)];
    if (cls < 0) {
      const auto src = static_cast<int32_t>(flow.tag_src);
      const auto dst = static_cast<int32_t>(num_nodes_ + flow.tag_dst);
      cls = has_backplane
                ? problem_.AddClass({src, dst, backplane}, kUnlimitedRate, 0)
                : problem_.AddClass({src, dst}, kUnlimitedRate, 0);
    }
    ++problem_.multiplicity[static_cast<size_t>(cls)];
    flow_class_[i] = cls;
  }
  const std::vector<double>& rates = solver_.Solve(problem_);
  for (size_t i = 0; i < flows.size(); ++i) {
    flows[i].rate = rates[static_cast<size_t>(flow_class_[i])];
    pair_class_[static_cast<size_t>(flows[i].tag_src * num_nodes_ +
                                    flows[i].tag_dst)] = -1;
  }
}

}  // namespace mrmb
