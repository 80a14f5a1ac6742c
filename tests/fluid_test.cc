#include "sim/fluid.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/fairshare.h"

namespace mrmb {
namespace {

// Rate solver: every flow served at `rate` units/second, unconditionally.
FluidPool::RateSolver FixedRate(double rate) {
  return [rate](std::span<FluidFlow> flows) {
    for (FluidFlow& flow : flows) flow.rate = rate;
  };
}

// Rate solver: flows share `capacity` equally.
FluidPool::RateSolver SharedCapacity(double capacity) {
  return [capacity](std::span<FluidFlow> flows) {
    const double each = capacity / static_cast<double>(flows.size());
    for (FluidFlow& flow : flows) flow.rate = each;
  };
}

TEST(FluidTest, SingleFlowCompletesAtWorkOverRate) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(100.0));  // 100 units/sec
  SimTime done_at = -1;
  pool.Start(250.0, 0, 0, [&](SimTime t) { done_at = t; });
  sim.Run();
  EXPECT_NEAR(ToSeconds(done_at), 2.5, 1e-6);
}

TEST(FluidTest, ZeroWorkCompletesImmediately) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(1.0));
  SimTime done_at = -1;
  pool.Start(0.0, 0, 0, [&](SimTime t) { done_at = t; });
  sim.Run();
  EXPECT_EQ(done_at, 0);
}

TEST(FluidTest, TwoEqualFlowsShareAndFinishTogether) {
  Simulator sim;
  FluidPool pool(&sim, SharedCapacity(100.0));
  SimTime done_a = -1;
  SimTime done_b = -1;
  pool.Start(100.0, 0, 0, [&](SimTime t) { done_a = t; });
  pool.Start(100.0, 1, 1, [&](SimTime t) { done_b = t; });
  sim.Run();
  // 200 units through 100/sec shared: both end at t=2.
  EXPECT_NEAR(ToSeconds(done_a), 2.0, 1e-6);
  EXPECT_NEAR(ToSeconds(done_b), 2.0, 1e-6);
}

TEST(FluidTest, ShortFlowFreesBandwidthForLongFlow) {
  Simulator sim;
  FluidPool pool(&sim, SharedCapacity(100.0));
  SimTime done_short = -1;
  SimTime done_long = -1;
  pool.Start(50.0, 0, 0, [&](SimTime t) { done_short = t; });
  pool.Start(150.0, 1, 1, [&](SimTime t) { done_long = t; });
  sim.Run();
  // Shared until t=1 (50 each); short ends. Long has 100 left at full rate:
  // ends at t=2.
  EXPECT_NEAR(ToSeconds(done_short), 1.0, 1e-6);
  EXPECT_NEAR(ToSeconds(done_long), 2.0, 1e-6);
}

TEST(FluidTest, LateArrivalSlowsExistingFlow) {
  Simulator sim;
  FluidPool pool(&sim, SharedCapacity(100.0));
  SimTime done_first = -1;
  SimTime done_second = -1;
  pool.Start(100.0, 0, 0, [&](SimTime t) { done_first = t; });
  sim.After(FromSeconds(0.5), [&] {
    pool.Start(100.0, 1, 1, [&](SimTime t) { done_second = t; });
  });
  sim.Run();
  // First does 50 units alone (0.5s), then shares: 50 left at 50/s = 1s
  // more -> t=1.5. Second: 100 at 50/s from t=0.5... but after first ends
  // at 1.5 it runs at 100/s: 50 done by 1.5, 50 more at 100/s -> t=2.0.
  EXPECT_NEAR(ToSeconds(done_first), 1.5, 1e-6);
  EXPECT_NEAR(ToSeconds(done_second), 2.0, 1e-6);
}

TEST(FluidTest, CancelPreventsCompletion) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(1.0));
  bool fired = false;
  const FlowId id = pool.Start(100.0, 0, 0, [&](SimTime) { fired = true; });
  sim.After(FromSeconds(1), [&] { EXPECT_TRUE(pool.Cancel(id)); });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(pool.active_flows(), 0u);
}

TEST(FluidTest, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(1.0));
  EXPECT_FALSE(pool.Cancel(12345));
}

TEST(FluidTest, RemainingDecreasesOverTime) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(10.0));
  const FlowId id = pool.Start(100.0, 0, 0, [](SimTime) {});
  double at_3s = -1;
  sim.After(FromSeconds(3), [&] { at_3s = pool.Remaining(id); });
  sim.Run();
  EXPECT_NEAR(at_3s, 70.0, 1e-6);
}

TEST(FluidTest, AccountingTracksTags) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(10.0));
  pool.Start(40.0, /*tag_src=*/1, /*tag_dst=*/2, [](SimTime) {});
  pool.Start(60.0, /*tag_src=*/1, /*tag_dst=*/3, [](SimTime) {});
  sim.Run();
  EXPECT_NEAR(pool.ServedFrom(1), 100.0, 1e-6);
  EXPECT_NEAR(pool.DeliveredTo(2), 40.0, 1e-6);
  EXPECT_NEAR(pool.DeliveredTo(3), 60.0, 1e-6);
  EXPECT_NEAR(pool.DeliveredTo(99), 0.0, 1e-6);
  EXPECT_NEAR(pool.TotalDelivered(), 100.0, 1e-6);
}

TEST(FluidTest, CompletionCallbackCanStartNewFlow) {
  Simulator sim;
  FluidPool pool(&sim, FixedRate(10.0));
  SimTime second_done = -1;
  pool.Start(10.0, 0, 0, [&](SimTime) {
    pool.Start(10.0, 0, 0, [&](SimTime t) { second_done = t; });
  });
  sim.Run();
  EXPECT_NEAR(ToSeconds(second_done), 2.0, 1e-6);
}

TEST(FluidTest, StalledFlowResumesWhenRateReturns) {
  // Solver gives rate 0 while a "blocker" flag is set.
  Simulator sim;
  bool blocked = true;
  FluidPool pool(&sim, [&](std::span<FluidFlow> flows) {
    for (FluidFlow& flow : flows) flow.rate = blocked ? 0.0 : 10.0;
  });
  SimTime done = -1;
  pool.Start(10.0, 0, 0, [&](SimTime t) { done = t; });
  sim.After(FromSeconds(5), [&] {
    blocked = false;
    // Membership change re-runs the solver: start and cancel a dummy.
    const FlowId dummy = pool.Start(1e9, 7, 7, [](SimTime) {});
    pool.Cancel(dummy);
  });
  sim.Run();
  EXPECT_NEAR(ToSeconds(done), 6.0, 1e-3);
}

TEST(FluidTest, ManyFlowsConserveWork) {
  Simulator sim;
  FluidPool pool(&sim, SharedCapacity(1000.0));
  int completed = 0;
  double total_work = 0;
  for (int i = 0; i < 50; ++i) {
    const double work = 10.0 * (i + 1);
    total_work += work;
    pool.Start(work, i, i, [&](SimTime) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 50);
  EXPECT_NEAR(pool.TotalDelivered(), total_work, total_work * 1e-5);
}

TEST(FluidTest, SolverSeesFlowsInStartOrderAfterCancel) {
  Simulator sim;
  std::vector<FlowId> seen;
  FluidPool pool(&sim, [&](std::span<FluidFlow> flows) {
    seen.clear();
    for (FluidFlow& flow : flows) {
      seen.push_back(flow.id);
      flow.rate = 1.0;
    }
  });
  std::vector<FlowId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(pool.Start(10.0 + i, i, i, [](SimTime) {}));
  }
  EXPECT_TRUE(pool.Cancel(ids[2]));
  EXPECT_FALSE(pool.Cancel(ids[2]));
  EXPECT_EQ(seen, (std::vector<FlowId>{ids[0], ids[1], ids[3], ids[4]}));
  EXPECT_DOUBLE_EQ(pool.Remaining(ids[3]), 13.0);
  EXPECT_DOUBLE_EQ(pool.Remaining(ids[2]), 0.0);
  const FlowId late = pool.Start(1.0, 9, 9, [](SimTime) {});
  EXPECT_EQ(seen.back(), late);
  sim.Run();
  EXPECT_EQ(pool.active_flows(), 0u);
  EXPECT_NEAR(pool.DeliveredTo(9), 1.0, 1e-9);
}

TEST(FluidTest, DeterministicCompletionOrder) {
  auto run = [] {
    Simulator sim;
    FluidPool pool(&sim, SharedCapacity(100.0));
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      pool.Start(10.0 + i, i, i, [&order, i](SimTime) { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mrmb
