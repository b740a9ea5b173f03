// Pins the benchmark's drivers to the library's: the open-loop driver must
// make workload::ScaleDriver's calls in ScaleDriver's RNG order, tracing must
// not move a simulated-clock figure, and the scripted-churn ledger must see
// every cut the script makes.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
#include <gtest/gtest.h>

#include <vector>

#include "layers.h"
#include "spans.h"
#include "workload/scale.h"
#include "workload/scripted.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct ClockFigures {
  std::uint64_t severed = 0;
  std::uint64_t collected = 0;
  std::uint64_t backlog = 0;
  SimTime ttc_p50 = 0;
  SimTime ttc_p99 = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const ClockFigures&, const ClockFigures&) = default;
};

// bench_scale's small row: 10 sites x 2,000 objects, topology seed 42,
// driver seed 7.
SimWorkloadSpec SmallWorld() {
  SimWorkloadSpec spec = ScaleOpenLoopSpec(/*seed=*/0);
  spec.topology.sites = 10;
  spec.topology.objects_per_site = 2'000;
  return spec;
}

ClockFigures RunLibraryDriver(const SimWorkloadSpec& spec) {
  dgc::System system(spec.topology.sites, DefaultConfig());
  dgc::workload::InstantiateScaleTopology(
      system, dgc::workload::BuildScaleTopology(spec.topology));
  system.network().ResetStats();
  dgc::workload::ScaleDriver driver(system, spec.driver);
  driver.Run();
  return {driver.stats().cohorts_severed,
          driver.stats().cohorts_collected,
          driver.backlog(),
          driver.time_to_collect().Quantile(0.5),
          driver.time_to_collect().Quantile(0.99),
          system.network().stats().inter_site_sent};
}

ClockFigures RunBenchDriver(const SimWorkloadSpec& spec, bool traced) {
  Tracer::Get().Enable(traced);
  dgc::System system(spec.topology.sites, DefaultConfig());
  BuildHeap(system, dgc::workload::BuildScaleTopology(spec.topology));
  system.network().ResetStats();
  OpenLoopDriver driver(system, spec.driver);
  driver.Run();
  Tracer::Get().Enable(false);
  return {driver.ledger().severed(),
          driver.ledger().collected(),
          driver.ledger().backlog(),
          driver.ledger().ttc().Quantile(0.5),
          driver.ledger().ttc().Quantile(0.99),
          system.network().stats().inter_site_sent};
}

TEST(PinTest, OpenLoopDriverReproducesScaleDriver) {
  const ClockFigures expected{4'230, 3'648, 582, 3'027, 3'954, 44'976};
  EXPECT_EQ(RunLibraryDriver(SmallWorld()), expected);
  EXPECT_EQ(RunBenchDriver(SmallWorld(), /*traced=*/false), expected);
}

// bench_scale's 100 x 10^4 headline (about 90 s of host time, so run it on
// request: --gtest_also_run_disabled_tests).
TEST(PinTest, DISABLED_OpenLoopDriverReproducesTheHeadline) {
  SimWorkloadSpec spec = ScaleOpenLoopSpec(/*seed=*/0);
  spec.topology.objects_per_site = 10'000;
  const ClockFigures figures = RunBenchDriver(spec, /*traced=*/false);
  EXPECT_EQ(figures, (ClockFigures{4'230, 3'769, 461, 2'346, 3'562,
                                   figures.messages}));
  EXPECT_NEAR(static_cast<double>(figures.messages) / 3'769.0, 55.03, 0.005);
}

TEST(PinTest, TracingLeavesTheSimulatedClockAlone) {
  const std::uint64_t spans_before = Tracer::Get().span_count();
  const ClockFigures traced = RunBenchDriver(SmallWorld(), /*traced=*/true);
  EXPECT_GT(Tracer::Get().span_count(), spans_before);
  EXPECT_EQ(traced, RunBenchDriver(SmallWorld(), /*traced=*/false));
}

TEST(PinTest, LedgerSeesEveryScriptedCut) {
  dgc::System system(4, DefaultConfig());
  SystemWorld inner(system);
  LedgerWorld world(inner,
                    {[&system] { return system.now(); },
                     [&system] { return StoredObjects(system); }},
                    /*traced=*/false);
  dgc::ScriptedChurnSpec spec;
  spec.drain_rounds = 12;
  const dgc::ScriptedChurnResult script =
      dgc::RunScriptedChurn(world, /*seed=*/11, spec);
  EXPECT_EQ(world.ledger().severed(), script.cuts);
  EXPECT_EQ(world.ledger().collected(), script.cuts);
  EXPECT_EQ(world.round_ms().size(), spec.rounds + spec.drain_rounds);
}

}  // namespace
}  // namespace perfbench
