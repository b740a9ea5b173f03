// Low-churn soak for the incremental local trace (ISSUE: mutation-driven
// dirty tracking and back-info reuse).
//
// Two identically seeded twin systems run the same low-churn workload —
// under 1% of each site's objects mutate per epoch, and only one site
// mutates at a time — one twin with incremental_trace off (every epoch
// re-traces every live object on every site) and one with it on. The bench
// checks the twins agree on every verdict (objects stored and reclaimed)
// and reports how much tracing work the dirty tracking avoided:
//
//   * retrace_reduction  — full twin's marks over incremental twin's
//     re-traced objects (the ISSUE acceptance bar is >= 10x);
//   * reuse_hit_rate     — fraction of local traces served from the cache
//     (quiescent skips / traces), gated by bench_compare.py;
//   * intern_bytes_saved — outset-interning savings, summed over the
//     incremental twin's traces (the store is per-trace scratch, so each
//     trace reports its own).
//
// Emits BENCH_trace_incremental.json by default for bench_compare.py.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/system.h"

namespace {

using namespace dgc;

constexpr std::size_t kChainLength = 3;
constexpr std::size_t kEpochs = 32;
constexpr std::size_t kWarmupEpochs = 8;  // distance convergence, first caches

/// One rooted container per site; each container slot holds a private chain
/// of kChainLength objects, and every eighth chain tail also references the
/// next site's container (steady cross-site inrefs/outrefs).
std::vector<ObjectId> BuildWorld(System& system, std::size_t slots_per_site) {
  std::vector<ObjectId> containers;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    containers.push_back(system.NewObject(s, slots_per_site));
    system.SetPersistentRoot(containers.back());
  }
  for (SiteId s = 0; s < system.site_count(); ++s) {
    for (std::size_t slot = 0; slot < slots_per_site; ++slot) {
      ObjectId prev = kInvalidObject;
      for (std::size_t i = 0; i < kChainLength; ++i) {
        const ObjectId obj = system.NewObject(s, 1);
        if (i == 0) {
          system.Wire(containers[s], slot, obj);
        } else {
          system.Wire(prev, 0, obj);
        }
        prev = obj;
      }
      if (slot % 8 == 0) {
        const SiteId next =
            static_cast<SiteId>((s + 1) % system.site_count());
        system.Wire(prev, 0, containers[next]);
      }
    }
  }
  return containers;
}

/// Rewires a handful of container slots on one site: the old chain becomes
/// garbage (swept by that site's next trace) and a fresh chain replaces it.
/// Touches well under 1% of the site's objects.
void MutateSite(System& system, ObjectId container, std::size_t slots_per_site,
                Rng& rng) {
  const std::size_t rewires = std::max<std::size_t>(1, slots_per_site / 128);
  for (std::size_t r = 0; r < rewires; ++r) {
    const std::size_t slot = rng.NextBelow(slots_per_site);
    system.Unwire(container, slot);
    ObjectId prev = kInvalidObject;
    for (std::size_t i = 0; i < kChainLength; ++i) {
      const ObjectId obj = system.NewObject(container.site, 1);
      if (i == 0) {
        system.Wire(container, slot, obj);
      } else {
        system.Wire(prev, 0, obj);
      }
      prev = obj;
    }
  }
}

struct SoakTotals {
  std::uint64_t marked = 0;
  std::uint64_t retraced = 0;
  std::uint64_t traces = 0;
  std::uint64_t skips = 0;
  std::uint64_t wall_ns = 0;
};

SoakTotals Totals(const System& system) {
  SoakTotals t;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const SiteStats& stats = system.site(s).stats();
    t.marked += stats.objects_marked;
    t.retraced += stats.objects_retraced;
    t.traces += stats.local_traces;
    t.skips += stats.quiescent_skips;
    t.wall_ns += stats.trace_wall_ns;
  }
  return t;
}

/// System::RunRound spelled out (trace each idle site, then settle) so each
/// trace's outset stats are seen before the result is applied. Returns the
/// round's summed intern_bytes_saved.
std::uint64_t RunRoundSummingInternSavings(System& system) {
  std::uint64_t saved = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    Site& site = system.site(s);
    if (!site.trace_in_flight()) {
      TraceResult result = site.ComputeLocalTrace();
      saved += result.stats.outset_stats.intern_bytes_saved;
      site.CommitLocalTrace(std::move(result));
    }
    system.SettleNetwork();
  }
  return saved;
}

void BM_LowChurnSoak(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  const std::size_t slots_per_site = static_cast<std::size_t>(state.range(1));

  CollectorConfig full_config = bench::DefaultConfig();
  CollectorConfig inc_config = full_config;
  inc_config.incremental_trace = true;

  SoakTotals full_totals{}, inc_totals{};
  std::uint64_t intern_saved = 0;
  std::uint64_t reclaimed = 0;
  for (auto _ : state) {
    intern_saved = 0;
    System full(sites, full_config, {}, /*seed=*/29);
    System inc(sites, inc_config, {}, /*seed=*/29);
    const std::vector<ObjectId> full_containers =
        BuildWorld(full, slots_per_site);
    const std::vector<ObjectId> inc_containers =
        BuildWorld(inc, slots_per_site);

    SoakTotals full_base{}, inc_base{};
    Rng full_rng(113), inc_rng(113);
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      if (epoch == kWarmupEpochs) {
        full_base = Totals(full);
        inc_base = Totals(inc);
      }
      // Every other epoch one site (rotating) takes its sub-1% of churn;
      // every other site stays quiescent and must be served from cache.
      if (epoch % 2 == 0) {
        const std::size_t victim = (epoch / 2) % sites;
        MutateSite(full, full_containers[victim], slots_per_site, full_rng);
        MutateSite(inc, inc_containers[victim], slots_per_site, inc_rng);
      }
      full.RunRound();
      intern_saved += RunRoundSummingInternSavings(inc);
    }

    // Identical verdicts and sweeps, or the numbers above mean nothing.
    DGC_CHECK(full.TotalObjects() == inc.TotalObjects());
    DGC_CHECK(full.TotalObjectsReclaimed() == inc.TotalObjectsReclaimed());
    DGC_CHECK(full.CheckSafety().empty() && inc.CheckSafety().empty());

    const SoakTotals full_end = Totals(full), inc_end = Totals(inc);
    full_totals = {full_end.marked - full_base.marked,
                   full_end.retraced - full_base.retraced,
                   full_end.traces - full_base.traces,
                   full_end.skips - full_base.skips,
                   full_end.wall_ns - full_base.wall_ns};
    inc_totals = {inc_end.marked - inc_base.marked,
                  inc_end.retraced - inc_base.retraced,
                  inc_end.traces - inc_base.traces,
                  inc_end.skips - inc_base.skips,
                  inc_end.wall_ns - inc_base.wall_ns};
    reclaimed = inc.TotalObjectsReclaimed();
  }

  const double epochs_counted = static_cast<double>(kEpochs - kWarmupEpochs);
  state.counters["full_marked_per_epoch"] =
      static_cast<double>(full_totals.marked) / epochs_counted;
  state.counters["inc_retraced_per_epoch"] =
      static_cast<double>(inc_totals.retraced) / epochs_counted;
  state.counters["retrace_reduction"] =
      static_cast<double>(full_totals.marked) /
      static_cast<double>(inc_totals.retraced ? inc_totals.retraced : 1);
  state.counters["reuse_hit_rate"] =
      static_cast<double>(inc_totals.skips) /
      static_cast<double>(inc_totals.traces ? inc_totals.traces : 1);
  state.counters["intern_bytes_saved"] = static_cast<double>(intern_saved);
  state.counters["objects_reclaimed"] = static_cast<double>(reclaimed);
  state.counters["trace_wall_speedup"] =
      static_cast<double>(full_totals.wall_ns) /
      static_cast<double>(inc_totals.wall_ns ? inc_totals.wall_ns : 1);
}
BENCHMARK(BM_LowChurnSoak)
    ->Args({16, 128})
    ->Args({16, 512})
    ->Args({32, 256})
    ->Unit(benchmark::kMillisecond);

// The degenerate best case: a completely idle federation. Every epoch after
// the first must be a quiescent skip on every site.
void BM_IdleFederation(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  CollectorConfig config = bench::DefaultConfig();
  config.incremental_trace = true;
  SoakTotals totals{};
  for (auto _ : state) {
    System system(sites, config, {}, /*seed=*/31);
    BuildWorld(system, /*slots_per_site=*/64);
    system.RunRounds(kEpochs);
    totals = Totals(system);
  }
  state.counters["reuse_hit_rate"] =
      static_cast<double>(totals.skips) /
      static_cast<double>(totals.traces ? totals.traces : 1);
  state.counters["retraced_per_trace"] =
      static_cast<double>(totals.retraced) /
      static_cast<double>(totals.traces ? totals.traces : 1);
}
BENCHMARK(BM_IdleFederation)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_trace_incremental.json");
}
