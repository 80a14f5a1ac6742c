// Max-min fair bandwidth allocation (progressive filling / water-filling).
//
// Given a set of flows, each crossing a set of capacity-limited links and
// optionally capped at a per-flow rate limit, computes the max-min fair rate
// vector: all flows' rates are raised together until a link saturates or a
// flow hits its cap; those flows freeze and filling continues.
//
// This is the classic fluid model used to approximate TCP-fair sharing in
// flow-level network simulators; it is also reused for processor sharing
// (each runnable task is a "flow" capped at one core crossing the node's
// core-capacity "link") and for shared-disk bandwidth.
//
// Flows that cross the same links under the same cap always get the same
// rate, so a problem is stated in flow *classes*: one entry per class with
// a multiplicity. A class of k flows weighs k on every link it crosses. The
// result is bit-identical to listing the k flows one by one, and the cost
// of a solve scales with the number of classes, not of flows.

#ifndef MRMB_SIM_FAIRSHARE_H_
#define MRMB_SIM_FAIRSHARE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

namespace mrmb {

inline constexpr double kUnlimitedRate =
    std::numeric_limits<double>::infinity();

struct MaxMinProblem {
  // Capacity of each link, in work units per second. Must be >= 0.
  std::vector<double> link_capacity;
  // Class c crosses links link_index[link_begin[c] .. link_begin[c + 1])
  // (CSR layout). A class may cross no links, in which case it must have a
  // finite rate limit.
  std::vector<int32_t> link_begin = {0};
  std::vector<int32_t> link_index;
  // Per-flow rate cap of each class (kUnlimitedRate = no cap).
  std::vector<double> rate_limit;
  // Number of flows in each class (>= 1).
  std::vector<int64_t> multiplicity;

  size_t num_classes() const { return rate_limit.size(); }

  // Appends a class of `count` flows crossing `links`; returns its index.
  int32_t AddClass(std::initializer_list<int32_t> links,
                   double rate_cap = kUnlimitedRate, int64_t count = 1) {
    link_index.insert(link_index.end(), links.begin(), links.end());
    link_begin.push_back(static_cast<int32_t>(link_index.size()));
    rate_limit.push_back(rate_cap);
    multiplicity.push_back(count);
    return static_cast<int32_t>(rate_limit.size() - 1);
  }

  // Drops every class, keeping the links and all allocated storage.
  void ClearClasses() {
    link_begin.resize(1);
    link_index.clear();
    rate_limit.clear();
    multiplicity.clear();
  }
};

// Solves max-min problems, reusing its scratch storage across calls so a
// solve in the simulator's inner loop allocates nothing once warm.
class MaxMinSolver {
 public:
  // Returns the per-flow max-min fair rate of each class of `problem`.
  // The reference stays valid until the next Solve(). Invariants
  // guaranteed (and asserted by tests), counting every flow of a class:
  //   * sum of rates over each link <= its capacity (+ epsilon),
  //   * no flow exceeds its cap,
  //   * allocation is max-min: a flow's rate can only be below its cap if
  //     it crosses a saturated link on which every other flow has rate >=
  //     its own.
  const std::vector<double>& Solve(const MaxMinProblem& problem);

 private:
  std::vector<double> rate_;
  std::vector<double> residual_;
  std::vector<int64_t> unfrozen_on_link_;
  // Classes still being filled, in class order.
  std::vector<int32_t> unfrozen_;
  std::vector<char> saturated_;  // per link, after the current round
};

// One-shot convenience wrapper around MaxMinSolver::Solve.
std::vector<double> SolveMaxMinFair(const MaxMinProblem& problem);

}  // namespace mrmb

#endif  // MRMB_SIM_FAIRSHARE_H_
