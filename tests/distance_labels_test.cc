// Tests for incremental distance-label maintenance: the saturating distance
// arithmetic it leans on, the DistanceLabels repair engine driven directly
// against a raw heap (ripples, cone re-floors, recycling, budget blowouts,
// threshold breaches), a 10-seed mutation property test where a full forward
// propagation re-checks the maintained plane after EVERY step, and
// system-level twins proving the label-serving collector is observably
// bit-identical to the classic full trace — including under churn,
// incremental traces, parallel marking, and crash-restart fallbacks.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "common/distance.h"
#include "common/rng.h"
#include "core/inspect.h"
#include "core/metrics.h"
#include "core/system.h"
#include "localgc/distance_labels.h"
#include "mutator/session.h"
#include "store/heap.h"
#include "workload/builders.h"
#include "workload/churn.h"
#include "workload/figures.h"

namespace dgc {
namespace {

// --- Saturating distance arithmetic -----------------------------------------

TEST(DistanceArithmeticTest, AddDistanceSaturatesInsteadOfWrapping) {
  EXPECT_EQ(AddDistance(2, 3), 5u);
  EXPECT_EQ(AddDistance(0, 0), 0u);
  EXPECT_EQ(AddDistance(kDistanceInfinity, 1), kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity, kDistanceInfinity),
            kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity - 1, 1), kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity - 1, 2), kDistanceInfinity);
  EXPECT_EQ(AddDistance(1, kDistanceInfinity - 1), kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity - 2, 1), kDistanceInfinity - 1);
  // Saturation is sticky: once infinite, increments never wrap back down.
  Distance d = kDistanceInfinity - 3;
  for (int i = 0; i < 8; ++i) d = NextDistance(d);
  EXPECT_EQ(d, kDistanceInfinity);
}

TEST(DistanceArithmeticTest, NextDistanceMatchesAddByOne) {
  EXPECT_EQ(NextDistance(0), 1u);
  EXPECT_EQ(NextDistance(7), 8u);
  EXPECT_EQ(NextDistance(kDistanceInfinity), kDistanceInfinity);
  EXPECT_EQ(NextDistance(kDistanceUnreachedRoot), kDistanceInfinity);
  // The unreached-root sentinel sits strictly between every real distance
  // and infinity, so it never collides with either.
  EXPECT_LT(kDistanceUnreachedRoot, kDistanceInfinity);
  EXPECT_GT(kDistanceUnreachedRoot, 1u << 30);
}

// --- DistanceLabels driven directly against a raw heap ----------------------

constexpr Distance kThreshold = 3;

std::uint64_t SlotOf(ObjectId id) { return Heap::SlotOfIndex(id.index); }

class DistanceLabelsUnitTest : public ::testing::Test {
 protected:
  DistanceLabelsUnitTest() : heap_(0), labels_(heap_, kThreshold, 0) {
    heap_.SetMutationListener(&labels_);
  }
  ~DistanceLabelsUnitTest() override { heap_.SetMutationListener(nullptr); }

  ObjectId NewObject(std::size_t slots) { return heap_.Allocate(slots); }

  void Rebuild() { labels_.RebuildFromScratch(contribs_); }

  void SetContribution(ObjectId id, Distance d) {
    contribs_[SlotOf(id)] = d;
    labels_.ReconcileContributions(contribs_);
  }

  void DropContribution(ObjectId id) {
    contribs_.erase(SlotOf(id));
    if (labels_.fresh()) labels_.ReconcileContributions(contribs_);
  }

  void Verify() { labels_.VerifyAgainstFullPropagation(contribs_); }

  Distance Label(ObjectId id) const { return labels_.LabelOfSlot(SlotOf(id)); }

  Heap heap_;
  DistanceLabels labels_;
  DistanceLabels::ContributionMap contribs_;
};

TEST_F(DistanceLabelsUnitTest, RebuildDerivesReachabilityMinLabels) {
  //   a(0) -> b -> c      d(2) -> c      e (no contribution, unreachable)
  const ObjectId a = NewObject(1), b = NewObject(1), c = NewObject(0);
  const ObjectId d = NewObject(1), e = NewObject(0);
  heap_.SetSlot(a, 0, b);
  heap_.SetSlot(b, 0, c);
  heap_.SetSlot(d, 0, c);
  contribs_[SlotOf(a)] = 0;
  contribs_[SlotOf(d)] = 2;
  Rebuild();
  ASSERT_TRUE(labels_.fresh());
  EXPECT_EQ(Label(a), 0u);
  EXPECT_EQ(Label(b), 0u);
  EXPECT_EQ(Label(c), 0u);  // min(0 via b, 2 via d): intra-site edges cost 0
  EXPECT_EQ(Label(d), 2u);
  EXPECT_EQ(Label(e), kDistanceInfinity);
  EXPECT_EQ(labels_.stats().rebuilds, 1u);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, NewEdgeRipplesTheLowerLabelDownstream) {
  const ObjectId a = NewObject(1);
  const ObjectId h = NewObject(1), m = NewObject(1), t = NewObject(0);
  heap_.SetSlot(h, 0, m);
  heap_.SetSlot(m, 0, t);
  contribs_[SlotOf(a)] = 0;
  contribs_[SlotOf(h)] = 2;
  Rebuild();
  EXPECT_EQ(Label(t), 2u);

  const std::uint64_t before = labels_.stats().objects_relabeled;
  heap_.SetSlot(a, 0, m);  // 0 now reaches m: ripple m and t down, not h
  EXPECT_EQ(Label(m), 0u);
  EXPECT_EQ(Label(t), 0u);
  EXPECT_EQ(Label(h), 2u);
  // Bounded repair: exactly the two downstream slots were relabeled.
  EXPECT_EQ(labels_.stats().objects_relabeled - before, 2u);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, SeveredEdgeRefloorsExactlyTheDependentCone) {
  // a(0) -> b -> c, with c also held by d(2). Cutting a->b must raise b to
  // infinity and c to 2 — and must not touch a or d.
  const ObjectId a = NewObject(1), b = NewObject(1), c = NewObject(0);
  const ObjectId d = NewObject(1);
  heap_.SetSlot(a, 0, b);
  heap_.SetSlot(b, 0, c);
  heap_.SetSlot(d, 0, c);
  contribs_[SlotOf(a)] = 0;
  contribs_[SlotOf(d)] = 2;
  Rebuild();

  heap_.SetSlot(a, 0, ObjectId{});
  ASSERT_TRUE(labels_.fresh());
  EXPECT_EQ(Label(a), 0u);
  EXPECT_EQ(Label(b), kDistanceInfinity);
  EXPECT_EQ(Label(c), 2u);
  EXPECT_EQ(Label(d), 2u);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, CycleSurvivesRefloorWithoutSelfSupport) {
  // A two-object cycle fed only by a(1): cutting the feed must drop BOTH
  // members to infinity — the cone walk must not let the cycle's internal
  // edge keep it alive.
  const ObjectId a = NewObject(1), x = NewObject(1), y = NewObject(1);
  heap_.SetSlot(a, 0, x);
  heap_.SetSlot(x, 0, y);
  heap_.SetSlot(y, 0, x);
  contribs_[SlotOf(a)] = 1;
  Rebuild();
  EXPECT_EQ(Label(x), 1u);
  EXPECT_EQ(Label(y), 1u);

  heap_.SetSlot(a, 0, ObjectId{});
  EXPECT_EQ(Label(x), kDistanceInfinity);
  EXPECT_EQ(Label(y), kDistanceInfinity);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, ContributionChangesRepairInPlace) {
  const ObjectId a = NewObject(1), b = NewObject(0);
  heap_.SetSlot(a, 0, b);
  contribs_[SlotOf(a)] = 2;
  Rebuild();
  EXPECT_EQ(Label(b), 2u);

  SetContribution(a, 1);  // decrease: ripple
  ASSERT_TRUE(labels_.fresh());
  EXPECT_EQ(Label(a), 1u);
  EXPECT_EQ(Label(b), 1u);
  Verify();

  DropContribution(a);  // removal to infinity: exact re-floor, NOT a breach
  ASSERT_TRUE(labels_.fresh());
  EXPECT_EQ(Label(a), kDistanceInfinity);
  EXPECT_EQ(Label(b), kDistanceInfinity);
  EXPECT_EQ(labels_.stats().threshold_breaches, 0u);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, ThresholdBreachStalesThePlane) {
  const ObjectId a = NewObject(0);
  contribs_[SlotOf(a)] = kThreshold;  // clean side of the threshold
  Rebuild();

  // Crossing upward to a FINITE value is the paper's suspicion ripening —
  // rare, and re-propagated rather than repaired.
  contribs_[SlotOf(a)] = kThreshold + 1;
  labels_.ReconcileContributions(contribs_);
  EXPECT_FALSE(labels_.fresh());
  EXPECT_EQ(labels_.stats().threshold_breaches, 1u);

  Rebuild();
  ASSERT_TRUE(labels_.fresh());
  EXPECT_EQ(Label(a), kThreshold + 1);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, RepairBudgetBlowoutStalesMidRepair) {
  Heap heap(0);
  DistanceLabels tight(heap, kThreshold, /*repair_budget=*/4);
  heap.SetMutationListener(&tight);
  DistanceLabels::ContributionMap contribs;

  std::vector<ObjectId> chain;
  for (int i = 0; i < 32; ++i) chain.push_back(heap.Allocate(1));
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    heap.SetSlot(chain[i], 0, chain[i + 1]);
  }
  contribs[SlotOf(chain.front())] = 0;
  tight.RebuildFromScratch(contribs);
  ASSERT_TRUE(tight.fresh());

  // Severing the head invalidates all 32 slots; the budget trips mid-event.
  heap.SetSlot(chain.front(), 0, ObjectId{});
  EXPECT_FALSE(tight.fresh());

  // Events while stale are ignored; the rebuild squares everything away.
  heap.SetSlot(chain[5], 0, ObjectId{});
  tight.RebuildFromScratch(contribs);
  ASSERT_TRUE(tight.fresh());
  tight.VerifyAgainstFullPropagation(contribs);
  EXPECT_EQ(tight.LabelOfSlot(SlotOf(chain[1])), kDistanceInfinity);
  heap.SetMutationListener(nullptr);
}

TEST_F(DistanceLabelsUnitTest, FreeUnlinksAndRecycledSlotStartsClean) {
  const ObjectId a = NewObject(1), b = NewObject(1), c = NewObject(0);
  heap_.SetSlot(a, 0, b);
  heap_.SetSlot(b, 0, c);
  contribs_[SlotOf(a)] = 0;
  Rebuild();
  EXPECT_EQ(Label(c), 0u);

  // Free the middle of the chain; c loses its only path.
  heap_.SetSlot(a, 0, ObjectId{});
  DropContribution(b);
  heap_.Free(b);
  ASSERT_TRUE(labels_.fresh());
  EXPECT_EQ(Label(c), kDistanceInfinity);
  Verify();

  // The recycled slot (same storage, fresh generation) joins unlabeled.
  const ObjectId reborn = NewObject(1);
  EXPECT_EQ(SlotOf(reborn), SlotOf(b));
  EXPECT_EQ(Label(reborn), kDistanceInfinity);
  heap_.SetSlot(a, 0, reborn);
  heap_.SetSlot(reborn, 0, c);
  EXPECT_EQ(Label(reborn), 0u);
  EXPECT_EQ(Label(c), 0u);
  Verify();
}

TEST_F(DistanceLabelsUnitTest, RemoteTargetsFeedTheSupportIndex) {
  const ObjectId remote{7, 1};
  const ObjectId a = NewObject(1), b = NewObject(1);
  heap_.SetSlot(a, 0, remote);
  heap_.SetSlot(b, 0, remote);
  contribs_[SlotOf(a)] = 1;
  Rebuild();

  // Only holders with label <= threshold support the outref; the minimum
  // supporting label determines the clean outref distance (min + 1).
  const auto& support = labels_.outref_support();
  ASSERT_TRUE(support.contains(remote));
  EXPECT_EQ(support.at(remote).begin()->first, 1u);

  contribs_[SlotOf(b)] = 0;
  labels_.ReconcileContributions(contribs_);
  EXPECT_EQ(labels_.outref_support().at(remote).begin()->first, 0u);
  Verify();

  // Dropping both contributions leaves the outref unsupported entirely.
  contribs_.clear();
  labels_.ReconcileContributions(contribs_);
  ASSERT_TRUE(labels_.fresh());
  EXPECT_FALSE(labels_.outref_support().contains(remote));
  Verify();
}

// --- Property: the invariant holds after EVERY mutation step ----------------

class DistanceLabelsChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceLabelsChurn, EveryMutationStepMatchesAFullPropagation) {
  // Random allocate/wire/sever/free/contribution schedule against a raw
  // heap. After every step the maintained plane must equal a from-scratch
  // forward propagation (labels AND outref support, bit for bit) — with the
  // stale-path maintainer exercised too via a deliberately tight budget.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 2654435761ULL);
  Heap heap(0);
  // Budget 64: most repairs fit, some blow out — both paths get coverage.
  DistanceLabels labels(heap, kThreshold, /*repair_budget=*/64);
  heap.SetMutationListener(&labels);
  DistanceLabels::ContributionMap contribs;
  labels.RebuildFromScratch(contribs);

  std::vector<ObjectId> live;
  std::uint64_t rebuilds_forced = 0;
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 30 || live.size() < 4) {
      live.push_back(heap.Allocate(1 + rng.NextBelow(3)));
    } else if (op < 60) {
      const ObjectId source = live[rng.NextBelow(live.size())];
      const std::size_t slot = rng.NextBelow(heap.Get(source).slots.size());
      ObjectId target;  // null a third of the time: that's a severance
      if (rng.NextBelow(3) != 0) {
        target = rng.NextBool(0.2) ? ObjectId{7, 1 + rng.NextBelow(4)}
                                   : live[rng.NextBelow(live.size())];
      }
      heap.SetSlot(source, slot, target);
    } else if (op < 75) {
      const ObjectId obj = live[rng.NextBelow(live.size())];
      // Contribution churn below the threshold plus removals: the dominant
      // workload. (Upward finite crossings stale the plane by design and
      // are covered by ThresholdBreachStalesThePlane.)
      if (rng.NextBool(0.3)) {
        contribs.erase(SlotOf(obj));
      } else {
        contribs[SlotOf(obj)] = rng.NextBelow(kThreshold + 1);
      }
      if (labels.fresh()) labels.ReconcileContributions(contribs);
    } else if (live.size() > 4) {
      const std::size_t pick = rng.NextBelow(live.size());
      const ObjectId victim = live[pick];
      contribs.erase(SlotOf(victim));
      heap.Free(victim);  // other objects may still point at it: dangling
      live.erase(live.begin() + pick);
    }
    if (!labels.fresh()) {
      labels.RebuildFromScratch(contribs);
      ++rebuilds_forced;
    }
    labels.VerifyAgainstFullPropagation(contribs);
  }
  EXPECT_GT(labels.stats().repairs, 0u) << "no repair ever ran; test vacuous";
  // The incremental path must carry most steps; rebuilds stay the exception.
  EXPECT_LT(rebuilds_forced, 75u);
  heap.SetMutationListener(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceLabelsChurn,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- System-level: label-serving traces are observably identical ------------

CollectorConfig DistanceConfig(bool differential = true) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  config.incremental_distance = true;
  config.incremental_distance_differential = differential;
  return config;
}

// Same observable surface the incremental-trace twins compare: tables
// (distances, cleanliness, flags) and back info, per site.
std::string DumpObservableState(const System& system) {
  std::ostringstream os;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    os << "site " << s << " objects " << site.heap().object_count() << '\n';
    for (const auto& [obj, entry] : site.tables().inrefs()) {
      os << "  in " << obj << " d=" << entry.distance()
         << " flag=" << entry.garbage_flagged << '\n';
    }
    for (const auto& [ref, entry] : site.tables().outrefs()) {
      os << "  out " << ref << " d=" << entry.distance
         << " clean=" << entry.clean() << '\n';
    }
    for (const auto& [inref, outset] : site.back_info().inref_outsets) {
      os << "  outset " << inref << ":";
      for (const ObjectId o : outset) os << ' ' << o;
      os << '\n';
    }
    for (const auto& [outref, inset] : site.back_info().outref_insets) {
      os << "  inset " << outref << ":";
      for (const ObjectId o : inset) os << ' ' << o;
      os << '\n';
    }
  }
  return os.str();
}

TEST(DistanceSystemTest, KnobOffLeavesCountersAtZero) {
  CollectorConfig config = DistanceConfig();
  config.incremental_distance = false;
  config.incremental_distance_differential = false;
  System system(2, config, {}, /*seed=*/5);
  workload::ChurnDriver driver(system, Rng(99));
  workload::ChurnSpec spec;
  spec.steps = 20;
  driver.Run(spec);
  for (SiteId s = 0; s < system.site_count(); ++s) {
    EXPECT_EQ(system.site(s).stats().distance_repairs, 0u);
    EXPECT_EQ(system.site(s).stats().distance_fallbacks, 0u);
    EXPECT_EQ(system.site(s).stats().objects_relabeled, 0u);
    EXPECT_EQ(system.site(s).stats().label_serves, 0u);
  }
}

class DistanceTwinFigures : public ::testing::TestWithParam<int> {};

TEST_P(DistanceTwinFigures, LabelTwinMatchesFullTwinEveryRound) {
  // Identically seeded systems, one serving traces from repaired labels
  // (with the oracle double-checking every plane) and one running the
  // classic full trace, must agree on every observable after every round.
  const int figure = GetParam();
  CollectorConfig full_config = DistanceConfig();
  full_config.incremental_distance = false;
  full_config.incremental_distance_differential = false;
  System full(4, full_config, {}, /*seed=*/17);
  System inc(4, DistanceConfig(), {}, /*seed=*/17);
  for (System* system : {&full, &inc}) {
    switch (figure) {
      case 1:
        workload::BuildFigure1(*system);
        break;
      case 4:
        workload::BuildFigure4(*system, /*close_scc=*/true);
        break;
      default:
        workload::BuildFigure5(*system, /*with_second_source=*/true);
        break;
    }
  }
  for (int round = 0; round < 12; ++round) {
    full.RunRound();
    inc.RunRound();
    EXPECT_EQ(DumpObservableState(full), DumpObservableState(inc))
        << "figure " << figure << " diverged at round " << round;
  }
  EXPECT_EQ(full.TotalObjectsReclaimed(), inc.TotalObjectsReclaimed());
  std::uint64_t serves = 0;
  for (SiteId s = 0; s < inc.site_count(); ++s) {
    serves += inc.site(s).stats().label_serves;
  }
  EXPECT_GT(serves, 0u) << "no trace was ever served from labels";
}

INSTANTIATE_TEST_SUITE_P(Figures, DistanceTwinFigures,
                         ::testing::Values(1, 4, 5));

class DistanceDifferentialChurn
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceDifferentialChurn, EveryServedTraceMatchesTheOracle) {
  // incremental_distance_differential makes the collector the oracle: every
  // label-served trace also runs the shadow full trace AND recomputes the
  // label plane from scratch, aborting on any divergence.
  const std::uint64_t seed = GetParam();
  NetworkConfig net;
  net.latency = 6;
  net.latency_jitter = 6;
  System system(4, DistanceConfig(), net, seed);
  workload::ChurnDriver driver(system, Rng(seed * 2654435761ULL));
  workload::ChurnSpec spec;
  spec.steps = 50;
  driver.Run(spec);
  EXPECT_NO_THROW(driver.Quiesce());
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
  EXPECT_TRUE(system.CheckLocalSafetyInvariant().empty())
      << system.CheckLocalSafetyInvariant();
  std::uint64_t serves = 0, repairs = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    serves += system.site(s).stats().label_serves;
    repairs += system.site(s).stats().distance_repairs;
  }
  EXPECT_GT(serves, 0u) << "no trace was ever served; differential vacuous";
  EXPECT_GT(repairs, 0u) << "no repair ever fired under churn";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceDifferentialChurn,
                         ::testing::Range<std::uint64_t>(1, 11));

struct MatrixCase {
  bool incremental_trace;
  std::size_t mark_threads;
};

// A stable, readable name for each cell. Without it gtest prints the raw
// bytes of the struct, padding included, so the registered test names
// change from build to build.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << (c.incremental_trace ? "incremental" : "full") << "_trace_"
      << c.mark_threads << "_mark_threads";
}

class DistanceMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DistanceMatrix, DifferentialHoldsAcrossTheConfigMatrix) {
  // incremental_distance composed with incremental traces and parallel
  // marking: the differential plus the end-state safety checks must hold in
  // every cell. (mark_threads > 1 also puts this under TSan via the
  // `distance` ctest label.)
  const MatrixCase param = GetParam();
  CollectorConfig config = DistanceConfig();
  config.incremental_trace = param.incremental_trace;
  config.incremental_differential = param.incremental_trace;
  config.mark_threads = param.mark_threads;
  NetworkConfig net;
  net.latency = 6;
  System system(4, config, net, /*seed=*/23);
  workload::ChurnDriver driver(system, Rng(23 * 2654435761ULL));
  workload::ChurnSpec spec;
  spec.steps = 40;
  driver.Run(spec);
  EXPECT_NO_THROW(driver.Quiesce());
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
  std::uint64_t serves = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    serves += system.site(s).stats().label_serves;
  }
  EXPECT_GT(serves, 0u);
}

INSTANTIATE_TEST_SUITE_P(Cells, DistanceMatrix,
                         ::testing::Values(MatrixCase{false, 1},
                                           MatrixCase{true, 1},
                                           MatrixCase{false, 3},
                                           MatrixCase{true, 3}));

TEST(DistanceSystemTest, CrashRestartForcesAFallbackRebuild) {
  System system(2, DistanceConfig());
  const ObjectId target = system.NewObject(1, 0);
  workload::TetherToRoot(system, target, 1);
  system.RunRounds(3);
  const std::uint64_t fallbacks_before =
      system.site(1).stats().distance_fallbacks;
  ASSERT_TRUE(system.site(1).collector().distance_labels().fresh());

  system.site(1).CrashRestart();
  EXPECT_FALSE(system.site(1).collector().distance_labels().fresh());
  system.RunRound();  // must rebuild from scratch, counted as a fallback
  EXPECT_GT(system.site(1).stats().distance_fallbacks, fallbacks_before);
  EXPECT_TRUE(system.site(1).collector().distance_labels().fresh());
  EXPECT_TRUE(system.ObjectExists(target));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(DistanceSystemTest, SessionWriteRepairsInsteadOfRelabelingTheHeap) {
  // The headline economics: after warmup, severing one leaf must cost a
  // bounded repair — a handful of relabels — not a heap-sized propagation.
  System system(1, DistanceConfig(/*differential=*/false));
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  const ObjectId hub = system.NewObject(0, 64);
  system.Wire(root, 0, hub);
  std::vector<ObjectId> leaves;
  for (std::size_t i = 0; i < 64; ++i) {
    leaves.push_back(system.NewObject(0, 0));
    system.Wire(hub, i, leaves.back());
  }
  system.RunRounds(2);
  const std::uint64_t relabeled_warm =
      system.site(0).stats().objects_relabeled;

  Session session(system, 0, 1);
  session.Hold(hub);
  session.Write(hub, 0, ObjectId{});  // sever one leaf
  session.Release(hub);
  system.RunRound();
  // One slot went unreachable; the repair touched it alone (plus nothing on
  // the serve path), where a full propagation would rewrite all 66 labels.
  const std::uint64_t delta =
      system.site(0).stats().objects_relabeled - relabeled_warm;
  EXPECT_GE(delta, 1u);
  EXPECT_LE(delta, 4u);
  EXPECT_FALSE(system.ObjectExists(leaves[0]));
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    EXPECT_TRUE(system.ObjectExists(leaves[i]));
  }
}

TEST(DistanceSystemTest, CountersReachInspectAndMetrics) {
  System system(2, DistanceConfig());
  const ObjectId target = system.NewObject(1, 0);
  workload::TetherToRoot(system, target, 1);
  MetricsRecorder recorder;
  recorder.CaptureRounds(system, 3);

  const std::string described = DescribeSite(system.site(1));
  EXPECT_NE(described.find("distance labels:"), std::string::npos);
  const std::string csv = recorder.ToCsv();
  EXPECT_NE(csv.find("distance_repairs"), std::string::npos);
  EXPECT_NE(csv.find("label_serves"), std::string::npos);
  EXPECT_GT(recorder.samples().back().label_serves, 0u);
}

}  // namespace
}  // namespace dgc
