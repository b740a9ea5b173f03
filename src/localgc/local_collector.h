// The local tracing collector (Sections 2, 3 and 5).
//
// Each site traces independently, treating persistent roots, application
// roots and incoming inter-site references (inrefs) as roots. The trace:
//
//   1. marks objects reachable from roots and *clean* inrefs (estimated
//      distance <= the suspicion threshold), processing inrefs in increasing
//      distance order so that the first touch of an outref yields its minimum
//      distance (Section 3's distance propagation);
//   2. traces the remaining, *suspected* inrefs with the SCC-aware bottom-up
//      outset computation of Section 5.2, producing the back information used
//      by back traces;
//   3. records the objects and outrefs reached by neither phase for sweeping
//      and trimming.
//
// Garbage-flagged inrefs (confirmed by a completed back trace) are not roots,
// which is how a confirmed cycle actually dies (Section 4.5).
//
// Incremental traces (CollectorConfig::incremental_trace): a trace is a pure
// function of a small, exactly snapshotable input set — heap contents +
// persistent/application roots, each inref's (distance, garbage_flagged),
// and each outref's pinned bit. Nothing else feeds Run: barrier overrides,
// visited marks and back thresholds are consumed elsewhere. The collector
// snapshots those inputs every run and compares them with the previous
// trace's snapshot (heap equality is one integer — the Heap's monotone
// mutation epoch, maintained by the dirty-tracking barriers):
//
//   * all inputs identical  -> quiescent skip: the cached TraceResult is
//     re-served verbatim with only the epoch bumped;
//   * only *suspected* inref distances drifted (the steady ripening the
//     distance heuristic produces every epoch) -> marks, sweep set, back
//     information and memoized outsets are reused and only the distance
//     aggregation is re-folded from the cached outsets;
//   * anything else -> full trace (conservative), which also delta-patches
//     the inverse inset view from the previous back info instead of
//     rebuilding it, and refreshes the cache.
//
// Both reuse levels are exact, not approximate: phase-2 outsets are
// graph-theoretic (order-independent), so every reused field is what the
// full trace would have computed — incremental_differential asserts exactly
// that by running both and comparing.
//
// Phase 2's OutsetStore is scratch for one trace (§5.2): every full trace
// and every label-served trace empties it first, so its interned outsets and
// memoized unions never outlive the trace that computed them.
#pragma once

#include <utility>
#include <vector>

#include "backinfo/outset_store.h"
#include "localgc/distance_labels.h"
#include "localgc/trace_result.h"
#include "refs/tables.h"
#include "store/heap.h"

namespace dgc {

class WorkerPool;

class LocalCollector {
 public:
  LocalCollector(Heap& heap, RefTables& tables)
      : heap_(heap),
        tables_(tables),
        labels_(heap, tables.config().suspicion_threshold,
                tables.config().distance_repair_budget) {
    if (tables_.config().incremental_distance) {
      heap_.SetMutationListener(&labels_);
    }
  }

  ~LocalCollector() { heap_.SetMutationListener(nullptr); }

  LocalCollector(const LocalCollector&) = delete;
  LocalCollector& operator=(const LocalCollector&) = delete;

  /// Computes one local trace against the current heap. `app_roots` are the
  /// local objects held in mutator variables (Section 6.3); remote references
  /// held in variables are covered by their pinned outrefs. Pure computation:
  /// mutates only per-object mark stamps, never tables or heap membership.
  TraceResult Run(const std::vector<ObjectId>& app_roots);

  /// Epoch of the most recent trace (0 before the first).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Everything the trace's outcome depends on, captured exactly. Two equal
  /// snapshots prove two traces would compute identical results.
  struct TraceInputs {
    std::uint64_t heap_mutation_epoch = 0;
    std::vector<ObjectId> persistent_roots;
    std::vector<ObjectId> app_roots;
    struct Inref {
      ObjectId obj;
      Distance distance = 0;
      bool garbage_flagged = false;
      friend bool operator==(const Inref&, const Inref&) = default;
    };
    std::vector<Inref> inrefs;  // table order (sorted by object id)
    struct Outref {
      ObjectId ref;
      bool pinned = false;
      friend bool operator==(const Outref&, const Outref&) = default;
    };
    std::vector<Outref> outrefs;  // table order (sorted by ref id)
    friend bool operator==(const TraceInputs&, const TraceInputs&) = default;
  };

  /// Drops the previous-trace cache and the heap's dirty tracking (crash
  /// restart: both are volatile acceleration state).
  void InvalidateCache();

  /// True when a previous trace is cached and eligible for reuse checks.
  [[nodiscard]] bool cache_valid() const { return cache_.valid; }

  /// The incremental distance-label plane (a registered heap-mutation
  /// listener when CollectorConfig::incremental_distance is on; an inert
  /// member otherwise). Exposed for tests and instrumentation.
  [[nodiscard]] const DistanceLabels& distance_labels() const {
    return labels_;
  }

  /// Shares a persistent worker pool with the intra-trace parallel phases
  /// (work-stealing mark, per-slab sweep, partitioned refold). With a null
  /// pool or CollectorConfig::mark_threads <= 1 every phase runs the
  /// historical sequential code path bit for bit.
  void set_worker_pool(WorkerPool* pool) { pool_ = pool; }

 private:
  enum class ReuseLevel {
    kNone,        // inputs changed: full trace
    kRefold,      // only suspected-inref distances drifted
    kQuiescent,   // all inputs identical
  };

  /// Marks everything reachable from `root` as clean, recording first-touch
  /// distances of outrefs. `distance` is the root's estimated distance.
  void MarkCleanFrom(ObjectId root, Distance distance, TraceResult& result);

  [[nodiscard]] TraceInputs SnapshotInputs(
      const std::vector<ObjectId>& app_roots) const;
  [[nodiscard]] ReuseLevel ClassifyReuse(const TraceInputs& inputs) const;

  /// The classic three-phase trace. When `inputs_for_cache` is non-null the
  /// run also refreshes the reuse cache (and consumes the heap's dirty sets);
  /// null = plain run (incremental off, or the differential shadow trace).
  TraceResult RunFullTrace(const std::vector<ObjectId>& app_roots,
                           const TraceInputs* inputs_for_cache);

  /// Level-1 reuse: cached marks/outsets/back info, distances re-folded from
  /// the cached clean-phase distances plus each suspect's cached outset.
  [[nodiscard]] TraceResult RefoldDistances(const TraceInputs& inputs) const;

  /// Reaches each job's outset members at the job's distance, on the
  /// worker pool when mark_threads > 1 and the fold is large enough.
  void FoldOutsets(
      const std::vector<std::pair<Distance, const std::vector<ObjectId>*>>&
          jobs,
      TraceResult& result) const;

  /// Differential harness: aborts unless the two results agree on every
  /// semantic field (snapshots, distances, cleanliness, sweep, back info).
  void CheckEquivalent(const TraceResult& reused,
                       const TraceResult& full) const;

  /// The contribution map the label plane must reflect for this trace's
  /// inputs: persistent/application roots at 0, each non-garbage-flagged
  /// inref at its estimated distance (an unreached inref — distance
  /// infinity — contributes kDistanceUnreachedRoot), minimum per slot.
  [[nodiscard]] DistanceLabels::ContributionMap DesiredContributions(
      const TraceInputs& inputs) const;

  /// Serves a full-trace-identical TraceResult directly from the fresh
  /// label plane: no marking pass — clean set and sweep read off the labels,
  /// clean outref distances off the support index, suspect outsets
  /// recomputed against the labels. Requires labels_.fresh(). When
  /// `clean_outrefs_out` is non-null it receives the phase-1-equivalent
  /// outref records (pins + clean holders) for the reuse cache.
  TraceResult ServeFromLabels(const TraceInputs& inputs,
                              std::vector<OutrefOutcome>* clean_outrefs_out);

  /// Run() body when incremental_distance is on: reconcile -> fallback or
  /// reuse ladder (with ServeFromLabels replacing the full trace) ->
  /// differential checks -> cache refresh -> per-trace stat deltas.
  TraceResult RunWithLabels(const std::vector<ObjectId>& app_roots);

  Heap& heap_;
  RefTables& tables_;
  DistanceLabels labels_;
  /// labels_.stats() as of the previous trace — the baseline for the
  /// per-trace deltas reported in LocalTraceStats.
  DistanceLabels::Stats last_label_stats_;
  WorkerPool* pool_ = nullptr;
  std::uint64_t epoch_ = 0;
  /// Scratch mark stack, reused across traces so the hot loop never
  /// reallocates once the heap's size has been seen.
  std::vector<ObjectId> mark_stack_;
  /// Phase-2 scratch, emptied by each trace; kept as a member only so its
  /// hash tables keep their buckets from one trace to the next.
  OutsetStore store_;

  struct TraceCache {
    bool valid = false;
    TraceInputs inputs;
    TraceResult result;
    /// result.outrefs as of the end of phase 1 (pins + clean marking),
    /// before suspect contributions — the base the refold starts from.
    std::vector<OutrefOutcome> clean_outrefs;
  };
  TraceCache cache_;
};

}  // namespace dgc
