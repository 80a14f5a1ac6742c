#include "sim/fairshare.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mrmb {

namespace {
constexpr double kEps = 1e-9;

// Tolerances are relative above 1: rate + (cap - rate) can land an ulp of
// `cap` below it, which for caps past ~1e7 exceeds kEps, and a class that
// reaches its cap without freezing would stall the filling.
bool AtCap(double rate, double cap) {
  return rate >= cap - kEps * std::max(1.0, cap);
}
}  // namespace

const std::vector<double>& MaxMinSolver::Solve(const MaxMinProblem& problem) {
  const size_t num_classes = problem.num_classes();
  const size_t num_links = problem.link_capacity.size();
  MRMB_CHECK_EQ(problem.link_begin.size(), num_classes + 1);
  MRMB_CHECK_EQ(problem.multiplicity.size(), num_classes);
  MRMB_CHECK_EQ(static_cast<size_t>(problem.link_begin.back()),
                problem.link_index.size());

  rate_.assign(num_classes, 0.0);
  if (num_classes == 0) return rate_;

  const std::vector<int32_t>& begin = problem.link_begin;
  const std::vector<int32_t>& index = problem.link_index;
  residual_ = problem.link_capacity;
  unfrozen_on_link_.assign(num_links, 0);
  unfrozen_.clear();
  saturated_.assign(num_links, 0);

  // Classes with zero cap or crossing a zero-capacity link freeze at 0
  // immediately.
  for (size_t c = 0; c < num_classes; ++c) {
    MRMB_CHECK_GE(problem.multiplicity[c], 1);
    const double cap = problem.rate_limit[c];
    if (begin[c] == begin[c + 1]) {
      MRMB_CHECK(std::isfinite(cap))
          << "flow crossing no links must have a finite rate cap";
    }
    bool dead = cap <= kEps;
    for (int32_t i = begin[c]; i < begin[c + 1]; ++i) {
      const int32_t link = index[static_cast<size_t>(i)];
      MRMB_CHECK_GE(link, 0);
      MRMB_CHECK_LT(static_cast<size_t>(link), num_links);
      if (problem.link_capacity[static_cast<size_t>(link)] <= kEps) {
        dead = true;
      }
    }
    if (dead) continue;
    unfrozen_.push_back(static_cast<int32_t>(c));
    for (int32_t i = begin[c]; i < begin[c + 1]; ++i) {
      const auto link = static_cast<size_t>(index[static_cast<size_t>(i)]);
      unfrozen_on_link_[link] += problem.multiplicity[c];
    }
  }

  while (!unfrozen_.empty()) {
    // Largest equal increment all unfrozen flows can take.
    double inc = kUnlimitedRate;
    for (size_t l = 0; l < num_links; ++l) {
      if (unfrozen_on_link_[l] > 0) {
        inc = std::min(inc, residual_[l] /
                                static_cast<double>(unfrozen_on_link_[l]));
      }
    }
    for (int32_t c : unfrozen_) {
      const auto k = static_cast<size_t>(c);
      inc = std::min(inc, problem.rate_limit[k] - rate_[k]);
    }
    MRMB_CHECK(std::isfinite(inc))
        << "unbounded allocation: some flow has no binding constraint";
    inc = std::max(inc, 0.0);

    for (int32_t c : unfrozen_) rate_[static_cast<size_t>(c)] += inc;
    for (size_t l = 0; l < num_links; ++l) {
      if (unfrozen_on_link_[l] == 0) continue;
      residual_[l] -= inc * static_cast<double>(unfrozen_on_link_[l]);
      saturated_[l] =
          residual_[l] <= kEps * std::max(1.0, problem.link_capacity[l]);
    }

    // Freeze classes at their cap or crossing a saturated link, keeping
    // the rest in order. At least one class must freeze per iteration (inc
    // was chosen as the binding minimum), so the loop terminates in <=
    // num_classes iterations.
    size_t kept = 0;
    for (const int32_t c : unfrozen_) {
      const auto k = static_cast<size_t>(c);
      bool freeze = AtCap(rate_[k], problem.rate_limit[k]);
      for (int32_t i = begin[k]; i < begin[k + 1] && !freeze; ++i) {
        const auto link = static_cast<size_t>(index[static_cast<size_t>(i)]);
        freeze = saturated_[link] != 0;
      }
      if (!freeze) {
        unfrozen_[kept++] = c;
        continue;
      }
      for (int32_t i = begin[k]; i < begin[k + 1]; ++i) {
        const auto link = static_cast<size_t>(index[static_cast<size_t>(i)]);
        unfrozen_on_link_[link] -= problem.multiplicity[k];
      }
    }
    MRMB_CHECK_LT(kept, unfrozen_.size()) << "progressive filling stalled";
    unfrozen_.resize(kept);
  }
  return rate_;
}

std::vector<double> SolveMaxMinFair(const MaxMinProblem& problem) {
  MaxMinSolver solver;
  return solver.Solve(problem);
}

}  // namespace mrmb
