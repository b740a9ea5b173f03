// The outcome of one local trace, computed as a snapshot.
//
// To model non-atomic local tracing (Section 6.2), the collector *computes*
// everything against the heap as of the trace's start, and the site *applies*
// the result when the trace's simulated duration elapses. In between, back
// traces are served from the old back information and transfer-barrier
// cleanings are recorded for replay into this new copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "backinfo/outset_store.h"
#include "backinfo/site_back_info.h"
#include "common/distance.h"
#include "common/ids.h"

namespace dgc {

struct LocalTraceStats {
  std::uint64_t objects_marked_clean = 0;
  std::uint64_t objects_marked_suspect = 0;
  std::uint64_t objects_swept = 0;
  std::uint64_t edges_scanned_clean = 0;
  std::uint64_t suspect_objects_traced = 0;
  std::uint64_t suspect_edges_scanned = 0;
  std::uint64_t suspected_inrefs = 0;
  std::uint64_t suspected_outrefs = 0;
  OutsetStore::Stats outset_stats;
  std::size_t distinct_outsets = 0;
  std::size_t back_info_elements = 0;
  /// Real (wall-clock) duration of the trace computation, for throughput
  /// instrumentation only — never fed back into simulated time.
  std::uint64_t trace_wall_ns = 0;
  /// Wall time of the clean-mark phase (phase 1) alone, sequential or
  /// parallel. Zero when a reuse level skipped marking entirely.
  std::uint64_t mark_wall_ns = 0;
  /// Work-stealing mark only (mark_threads > 1): batches taken from another
  /// worker's deque, and batches published to deques. Schedule-dependent —
  /// excluded from determinism comparisons, like the wall times.
  std::uint64_t mark_steals = 0;
  std::uint64_t mark_batches = 0;

  // --- Incremental-trace accounting (zero when incremental_trace is off) --
  /// Objects actually visited by this trace. A full trace re-traces every
  /// live object; a level-1 reuse re-traces none (marks are reused); a
  /// quiescent skip re-traces none and also bumps quiescent_skips.
  std::uint64_t objects_retraced = 0;
  /// Suspect outsets served from the previous trace's memoized back info
  /// instead of being recomputed.
  std::uint64_t outsets_reused = 0;
  /// 1 when this result is a verbatim reuse of the previous epoch's trace
  /// on a provably quiescent site (sites aggregate it into a counter).
  std::uint64_t quiescent_skips = 0;

  // --- Incremental distance accounting (zero unless incremental_distance) --
  /// Mutation/contribution events since the previous trace whose bounded
  /// repair relabeled at least one object.
  std::uint64_t distance_repairs = 0;
  /// 1 when this trace found the label plane stale and fell back to a full
  /// forward propagation (crash-restart, threshold breach, budget blowout,
  /// or the very first trace).
  std::uint64_t distance_fallbacks = 0;
  /// Label writes since the previous trace — bounded repairs plus any
  /// fallback propagation's writes. The full-recompute equivalent is one
  /// write per live object per trace; the ratio is the tentpole's win.
  std::uint64_t objects_relabeled = 0;
  /// 1 when this trace's result was served from the repaired label plane
  /// instead of a marking pass.
  std::uint64_t label_serves = 0;
};

/// What one trace decided about one snapshot outref.
struct OutrefOutcome {
  ObjectId ref;
  /// New distance; meaningful only when `reached`.
  Distance distance = kDistanceInfinity;
  /// Reached from a root or clean inref, or pinned ("traced clean").
  bool clean = false;
  /// Reached by either phase. An unreached outref is dropped at apply time
  /// unless it was pinned or barrier-cleaned meanwhile.
  bool reached = false;

  /// Min-merges one more path reaching this outref at `d`.
  void Reach(Distance d) {
    distance = reached ? std::min(distance, d) : d;
    reached = true;
  }

  /// Orders records against a bare ref, for lower_bound.
  static bool RefLess(const OutrefOutcome& o, ObjectId ref) {
    return o.ref < ref;
  }

  friend bool operator==(const OutrefOutcome&, const OutrefOutcome&) = default;
};

struct TraceResult {
  std::uint64_t epoch = 0;

  /// One record per outref that existed when the trace started, in table
  /// (ObjectId) order. Apply only touches these; outrefs created mid-trace
  /// keep their fresh clean state untouched.
  std::vector<OutrefOutcome> outrefs;

  /// Inrefs that existed when the trace started, sorted.
  std::vector<ObjectId> snapshot_inrefs;

  /// Objects unreachable at the start of the trace, to be swept at apply.
  std::vector<ObjectId> objects_to_free;

  /// The new back information (outsets of suspected inrefs + inverse).
  SiteBackInfo back_info;

  LocalTraceStats stats;

  /// The snapshot record for `ref`, or nullptr when `ref` had no outref
  /// when the trace started.
  [[nodiscard]] const OutrefOutcome* FindOutref(ObjectId ref) const {
    const auto it = std::lower_bound(outrefs.begin(), outrefs.end(), ref,
                                     OutrefOutcome::RefLess);
    return it != outrefs.end() && it->ref == ref ? &*it : nullptr;
  }
  [[nodiscard]] OutrefOutcome* FindOutref(ObjectId ref) {
    return const_cast<OutrefOutcome*>(std::as_const(*this).FindOutref(ref));
  }

  /// Reaches every member of the sorted `outset` at `distance`; members
  /// with no snapshot record are skipped.
  void ReachAll(const std::vector<ObjectId>& outset, Distance distance) {
    auto it = outrefs.begin();
    for (const ObjectId ref : outset) {
      it = std::lower_bound(it, outrefs.end(), ref, OutrefOutcome::RefLess);
      if (it == outrefs.end()) return;
      if (it->ref == ref) it->Reach(distance);
    }
  }
};

}  // namespace dgc
