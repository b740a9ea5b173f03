#include "localgc/local_collector.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "backinfo/suspect_trace.h"
#include "common/logging.h"
#include "localgc/parallel_mark.h"

namespace dgc {

namespace {

/// Clean for the purposes of outset membership: reached by this trace's
/// clean phase, or pinned (insert barrier / mutator variable), which makes
/// it forcibly clean until released. Both are already on the outref's
/// record when the suspect phase runs.
bool IsCleanOutref(const TraceResult& result, ObjectId remote_ref) {
  const OutrefOutcome* outcome = result.FindOutref(remote_ref);
  DGC_CHECK_MSG(outcome != nullptr,
                "object holds remote ref " << remote_ref << " with no outref");
  return outcome->clean;
}

/// Policy the suspect tracer uses to see this trace's clean results and to
/// mark suspect objects live for the sweep.
class SuspectEnv {
 public:
  SuspectEnv(Heap& heap, std::uint64_t epoch, const TraceResult& result)
      : heap_(heap), epoch_(epoch), result_(result) {}

  [[nodiscard]] bool ObjectIsCleanMarked(ObjectId id) const {
    return heap_.clean_epoch(id) == epoch_;
  }

  [[nodiscard]] bool OutrefIsClean(ObjectId remote_ref) const {
    return IsCleanOutref(result_, remote_ref);
  }

  void OnSuspectMarked(ObjectId id) { heap_.set_mark_epoch(id, epoch_); }

 private:
  Heap& heap_;
  std::uint64_t epoch_;
  const TraceResult& result_;
};

/// Suspect-tracer policy for the label-served trace: cleanliness is read off
/// the distance-label plane instead of this epoch's mark stamps (no marking
/// pass ran), and suspect marking is a no-op (the sweep reads labels too).
class LabelEnv {
 public:
  LabelEnv(const DistanceLabels& labels, Distance threshold,
           const TraceResult& result)
      : labels_(labels), threshold_(threshold), result_(result) {}

  [[nodiscard]] bool ObjectIsCleanMarked(ObjectId id) const {
    return labels_.LabelOfSlot(Heap::SlotOfIndex(id.index)) <= threshold_;
  }

  [[nodiscard]] bool OutrefIsClean(ObjectId remote_ref) const {
    return IsCleanOutref(result_, remote_ref);
  }

  void OnSuspectMarked(ObjectId) {}

 private:
  const DistanceLabels& labels_;
  Distance threshold_;
  const TraceResult& result_;
};

/// Appends the snapshot record for outref `ref`. A pinned outref is an
/// application root / insert-barrier retention: clean, distance 1,
/// regardless of whether the heap reaches it.
void StartOutcome(TraceResult& result, ObjectId ref, bool pinned) {
  OutrefOutcome& outcome = result.outrefs.emplace_back(OutrefOutcome{ref});
  if (pinned) {
    outcome.Reach(1);
    outcome.clean = true;
  }
}

std::uint64_t WallNanosSince(
    const std::chrono::steady_clock::time_point& start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

void LocalCollector::MarkCleanFrom(ObjectId root, Distance distance,
                                   TraceResult& result) {
  if (!heap_.Exists(root)) return;  // stale app root; defensive
  const Heap::Cell root_cell = heap_.GetCell(root);
  if (*root_cell.clean_epoch == epoch_) return;
  *root_cell.mark_epoch = epoch_;
  *root_cell.clean_epoch = epoch_;
  ++result.stats.objects_marked_clean;
  std::vector<ObjectId>& stack = mark_stack_;
  stack.clear();
  stack.push_back(root);
  const SiteId self = heap_.site();
  const Distance outref_distance = NextDistance(distance);
  while (!stack.empty()) {
    const ObjectId current = stack.back();
    stack.pop_back();
    // One id decode per pop; the slot scan then walks the cached object.
    const Object& object = *heap_.GetCell(current).object;
    for (const ObjectId target : object.slots) {
      if (!target.valid()) continue;
      ++result.stats.edges_scanned_clean;
      if (target.site != self) {
        // First touch wins the minimum distance because roots are processed
        // in increasing distance order.
        if (OutrefOutcome* outcome = result.FindOutref(target)) {
          outcome->Reach(outref_distance);
          outcome->clean = true;
        }
        continue;
      }
      const Heap::Cell cell = heap_.GetCell(target);
      if (*cell.clean_epoch == epoch_) continue;
      *cell.mark_epoch = epoch_;
      *cell.clean_epoch = epoch_;
      ++result.stats.objects_marked_clean;
      stack.push_back(target);
    }
  }
}

LocalCollector::TraceInputs LocalCollector::SnapshotInputs(
    const std::vector<ObjectId>& app_roots) const {
  TraceInputs inputs;
  inputs.heap_mutation_epoch = heap_.mutation_epoch();
  inputs.persistent_roots = heap_.persistent_roots();
  inputs.app_roots = app_roots;
  inputs.inrefs.reserve(tables_.inrefs().size());
  for (const auto& [obj, entry] : tables_.inrefs()) {
    inputs.inrefs.push_back(
        TraceInputs::Inref{obj, entry.distance(), entry.garbage_flagged});
  }
  inputs.outrefs.reserve(tables_.outrefs().size());
  for (const auto& [ref, entry] : tables_.outrefs()) {
    inputs.outrefs.push_back(TraceInputs::Outref{ref, entry.pin_count > 0});
  }
  return inputs;
}

LocalCollector::ReuseLevel LocalCollector::ClassifyReuse(
    const TraceInputs& inputs) const {
  if (!cache_.valid) return ReuseLevel::kNone;
  if (inputs == cache_.inputs) return ReuseLevel::kQuiescent;
  // Level 1 requires everything except suspected-inref distances to be
  // identical: the clean phase then reruns bit-identically (same roots, same
  // clean inrefs at the same distances, same heap), the suspect SET and its
  // outsets are unchanged (outsets do not depend on suspect distances), and
  // only the distance fold over those outsets needs redoing.
  if (inputs.heap_mutation_epoch != cache_.inputs.heap_mutation_epoch ||
      inputs.persistent_roots != cache_.inputs.persistent_roots ||
      inputs.app_roots != cache_.inputs.app_roots ||
      inputs.outrefs != cache_.inputs.outrefs ||
      inputs.inrefs.size() != cache_.inputs.inrefs.size()) {
    return ReuseLevel::kNone;
  }
  const Distance threshold = tables_.config().suspicion_threshold;
  for (std::size_t i = 0; i < inputs.inrefs.size(); ++i) {
    const TraceInputs::Inref& past = cache_.inputs.inrefs[i];
    const TraceInputs::Inref& now = inputs.inrefs[i];
    if (past.obj != now.obj || past.garbage_flagged != now.garbage_flagged) {
      return ReuseLevel::kNone;
    }
    const bool was_clean = past.distance <= threshold;
    const bool is_clean = now.distance <= threshold;
    // Classification flips change the root set / suspect set; a *clean*
    // inref's distance feeds the clean phase's first-touch minima, so it
    // must match exactly. Suspect distances are free to drift.
    if (was_clean != is_clean) return ReuseLevel::kNone;
    if (is_clean && past.distance != now.distance) return ReuseLevel::kNone;
  }
  return ReuseLevel::kRefold;
}

TraceResult LocalCollector::RefoldDistances(const TraceInputs& inputs) const {
  TraceResult result = cache_.result;
  result.epoch = epoch_;
  result.outrefs = cache_.clean_outrefs;
  result.stats.objects_retraced = 0;
  result.stats.quiescent_skips = 0;
  // No marking happened this run; the cached trace's schedule-dependent
  // mark accounting must not be re-reported.
  result.stats.mark_wall_ns = 0;
  result.stats.mark_steals = 0;
  result.stats.mark_batches = 0;
  const Distance threshold = tables_.config().suspicion_threshold;
  std::vector<std::pair<Distance, const std::vector<ObjectId>*>> jobs;
  for (const TraceInputs::Inref& in : inputs.inrefs) {
    if (in.garbage_flagged || in.distance <= threshold) continue;
    // Suspects absent from the cached back info contributed nothing to the
    // fold last time either: they were clean-marked by phase 1 (dropped by
    // the auxiliary invariant of §6.1.1) or their outset was empty.
    const auto it = cache_.result.back_info.inref_outsets.find(in.obj);
    if (it == cache_.result.back_info.inref_outsets.end()) continue;
    jobs.emplace_back(NextDistance(in.distance), &it->second);
  }
  result.stats.outsets_reused = jobs.size();
  FoldOutsets(jobs, result);
  return result;
}

void LocalCollector::FoldOutsets(
    const std::vector<std::pair<Distance, const std::vector<ObjectId>*>>& jobs,
    TraceResult& result) const {
  // Partitioning has fixed pool overhead; only worth it past a handful of
  // suspects (the min-merge is identical either way).
  constexpr std::size_t kParallelFoldMin = 16;
  const std::size_t mark_threads = tables_.config().mark_threads;
  if (mark_threads > 1 && pool_ != nullptr && jobs.size() >= kParallelFoldMin) {
    ParallelFoldOutsets(jobs, *pool_, mark_threads, result.outrefs);
    return;
  }
  for (const auto& [outref_distance, outset] : jobs) {
    result.ReachAll(*outset, outref_distance);
  }
}

void LocalCollector::CheckEquivalent(const TraceResult& reused,
                                     const TraceResult& full) const {
  const SiteId site = heap_.site();
#define DGC_DIFF_FIELD(field)                                               \
  DGC_CHECK_MSG(reused.field == full.field,                                 \
                "incremental trace diverged from full trace on site "       \
                    << site << " epoch " << epoch_ << ": field " << #field)
  DGC_DIFF_FIELD(epoch);
  DGC_DIFF_FIELD(outrefs);
  DGC_DIFF_FIELD(snapshot_inrefs);
  DGC_DIFF_FIELD(objects_to_free);
  DGC_DIFF_FIELD(back_info);
#undef DGC_DIFF_FIELD
}

void LocalCollector::InvalidateCache() {
  cache_.valid = false;
  cache_.result = TraceResult{};
  cache_.inputs = TraceInputs{};
  cache_.clean_outrefs.clear();
  heap_.InvalidateDirtyTracking();
  // The label plane is volatile acceleration state too: after a crash
  // restart the next trace must re-derive it with a full propagation.
  labels_.MarkStale();
}

TraceResult LocalCollector::RunFullTrace(
    const std::vector<ObjectId>& app_roots,
    const TraceInputs* inputs_for_cache) {
  const CollectorConfig& config = tables_.config();
  const bool incremental = config.incremental_trace;
  TraceResult result;
  result.epoch = epoch_;

  // Worst-case mark-stack depth is the live-object count; reserving up front
  // keeps the hot loop free of reallocation (the buffer persists across
  // traces, so this is amortised to nothing in steady state).
  mark_stack_.reserve(heap_.object_count());

  result.outrefs.reserve(tables_.outrefs().size());
  for (const auto& [ref, entry] : tables_.outrefs()) {
    StartOutcome(result, ref, entry.pin_count > 0);
  }
  result.snapshot_inrefs.reserve(tables_.inrefs().size());
  for (const auto& [obj, entry] : tables_.inrefs()) {
    result.snapshot_inrefs.push_back(obj);
  }

  // ---- Phase 1: clean marking, roots in increasing distance order. ----
  const auto mark_start = std::chrono::steady_clock::now();

  std::vector<std::pair<Distance, ObjectId>> ordered_inrefs;
  for (const auto& [obj, entry] : tables_.inrefs()) {
    if (entry.garbage_flagged) continue;  // confirmed garbage: not a root
    ordered_inrefs.emplace_back(entry.distance(), obj);
  }
  std::sort(ordered_inrefs.begin(), ordered_inrefs.end());
  auto clean_limit = std::partition_point(
      ordered_inrefs.begin(), ordered_inrefs.end(), [&](const auto& pair) {
        return pair.first <= config.suspicion_threshold;
      });

  const bool parallel = config.mark_threads > 1 && pool_ != nullptr;
  if (!parallel) {
    for (const ObjectId root : heap_.persistent_roots()) {
      MarkCleanFrom(root, 0, result);
    }
    for (const ObjectId root : app_roots) {
      MarkCleanFrom(root, 0, result);
    }
    for (auto it = ordered_inrefs.begin(); it != clean_limit; ++it) {
      MarkCleanFrom(it->second, it->first, result);
    }
  } else {
    // Distance layers: the sequential loop's increasing-distance order means
    // every object is claimed for the minimum root distance that reaches it.
    // A barrier between distinct distances preserves exactly that, and
    // within one layer every claim carries the same distance, so claim
    // interleaving cannot change the merged result.
    ParallelMarker marker(heap_, *pool_, config.mark_threads);
    std::vector<ObjectId> layer = heap_.persistent_roots();
    layer.insert(layer.end(), app_roots.begin(), app_roots.end());
    auto it = ordered_inrefs.begin();
    while (it != clean_limit && it->first == 0) {
      layer.push_back((it++)->second);  // distance-0 inrefs join the roots
    }
    marker.MarkLayer(layer, 0, epoch_, result);
    while (it != clean_limit) {
      const Distance layer_distance = it->first;
      layer.clear();
      while (it != clean_limit && it->first == layer_distance) {
        layer.push_back((it++)->second);
      }
      marker.MarkLayer(layer, layer_distance, epoch_, result);
    }
    result.stats.mark_steals = marker.stats().steals;
    result.stats.mark_batches = marker.stats().batches_published;
  }
  result.stats.mark_wall_ns = WallNanosSince(mark_start);

  // The refold reuse level rebuilds distances from this phase-1 base, so
  // capture it before suspect contributions land on top.
  std::vector<OutrefOutcome> clean_outrefs;
  if (inputs_for_cache != nullptr) clean_outrefs = result.outrefs;

  // ---- Phase 2: suspected inrefs — bottom-up outset computation (§5.2).
  // store_ is scratch for this trace alone.
  store_.Clear();
  store_.Reserve(
      static_cast<std::size_t>(ordered_inrefs.end() - clean_limit));
  SuspectEnv env(heap_, epoch_, result);
  BottomUpOutsetComputer<SuspectEnv> computer(heap_, store_, env);
  for (auto it = clean_limit; it != ordered_inrefs.end(); ++it) {
    const auto [distance, obj] = *it;
    ++result.stats.suspected_inrefs;
    DGC_CHECK_MSG(heap_.Exists(obj), "inref names a swept object " << obj);
    const OutsetStore::OutsetId outset_id = computer.TraceFrom(obj);
    const std::vector<ObjectId>& outset = store_.Get(outset_id);
    // An inref whose object was reached by the clean phase contributes an
    // empty outset and is dropped from the back information: it can never
    // appear in a suspected outref's inset (auxiliary invariant of §6.1.1).
    if (heap_.clean_epoch(obj) == epoch_) continue;
    result.ReachAll(outset, NextDistance(distance));
    if (!outset.empty()) {
      result.back_info.inref_outsets.emplace(obj, outset);
    }
  }

  // Inverse (inset) view: with a cached previous trace, patch it forward by
  // the per-inref outset deltas instead of rebuilding it — O(changed
  // memberships) plus two flat copies, and it counts how many suspects kept
  // their outset verbatim (outsets_reused).
  if (incremental && cache_.valid && inputs_for_cache != nullptr) {
    result.back_info =
        SiteBackInfo::PatchedFrom(cache_.result.back_info,
                                  result.back_info.inref_outsets,
                                  &result.stats.outsets_reused);
  } else {
    result.back_info.RecomputeInsets();
  }

  result.stats.suspect_objects_traced = computer.stats().objects_traced;
  result.stats.suspect_edges_scanned = computer.stats().edges_scanned;
  result.stats.objects_marked_suspect = computer.stats().objects_traced;
  result.stats.outset_stats = store_.stats();
  result.stats.distinct_outsets = store_.distinct_outsets();
  result.stats.back_info_elements = result.back_info.stored_elements();
  result.stats.suspected_outrefs = result.back_info.outref_insets.size();
  if (incremental) {
    result.stats.objects_retraced = result.stats.objects_marked_clean +
                                    result.stats.objects_marked_suspect;
  }

  // ---- Phase 3: sweep list and untraced outrefs. ----
  if (parallel) {
    result.objects_to_free =
        ParallelSweepUnmarked(heap_, *pool_, config.mark_threads, epoch_);
  } else {
    heap_.ForEachWithEpochs([&](ObjectId id, const Object&, std::uint64_t mark,
                                std::uint64_t) {
      if (mark != epoch_) result.objects_to_free.push_back(id);
    });
  }
  result.stats.objects_swept = result.objects_to_free.size();

  if (inputs_for_cache != nullptr) {
    // This trace observed the whole heap: the dirty sets are consumed, and
    // the cache now describes the present input state exactly.
    heap_.ClearDirty();
    cache_.valid = true;
    cache_.inputs = *inputs_for_cache;
    cache_.result = result;
    cache_.clean_outrefs = std::move(clean_outrefs);
  }
  return result;
}

DistanceLabels::ContributionMap LocalCollector::DesiredContributions(
    const TraceInputs& inputs) const {
  DistanceLabels::ContributionMap contribs;
  const auto add = [&](ObjectId obj, Distance value) {
    if (!heap_.Exists(obj)) return;  // stale app root; defensive
    const std::uint64_t slot = Heap::SlotOfIndex(obj.index);
    auto [it, inserted] = contribs.emplace(slot, value);
    if (!inserted) it->second = std::min(it->second, value);
  };
  for (const ObjectId root : inputs.persistent_roots) add(root, 0);
  for (const ObjectId root : inputs.app_roots) add(root, 0);
  for (const TraceInputs::Inref& in : inputs.inrefs) {
    if (in.garbage_flagged) continue;
    // An inref with no sources reports distance infinity but still retains
    // what it reaches; the sentinel keeps that retained set distinguishable
    // from garbage (label infinity) while staying suspect.
    add(in.obj, in.distance == kDistanceInfinity ? kDistanceUnreachedRoot
                                                 : in.distance);
  }
  return contribs;
}

TraceResult LocalCollector::ServeFromLabels(
    const TraceInputs& inputs, std::vector<OutrefOutcome>* clean_outrefs_out) {
  const CollectorConfig& config = tables_.config();
  const Distance threshold = config.suspicion_threshold;
  TraceResult result;
  result.epoch = epoch_;

  result.outrefs.reserve(inputs.outrefs.size());
  for (const TraceInputs::Outref& out : inputs.outrefs) {
    StartOutcome(result, out.ref, out.pinned);
  }
  result.snapshot_inrefs.reserve(inputs.inrefs.size());
  for (const TraceInputs::Inref& in : inputs.inrefs) {
    result.snapshot_inrefs.push_back(in.obj);
  }

  // Phase-1 equivalent, no marking: a clean outref's distance is one past
  // the minimum label over its clean holders — exactly the support index's
  // minimum key (phase 1 scans every object once, during the traversal of
  // its minimum-distance claiming root).
  for (const auto& [ref, by_label] : labels_.outref_support()) {
    if (OutrefOutcome* outcome = result.FindOutref(ref)) {
      outcome->Reach(NextDistance(by_label.begin()->first));
      outcome->clean = true;
    }
  }
  if (clean_outrefs_out != nullptr) *clean_outrefs_out = result.outrefs;

  // Phase-2 equivalent: recompute suspect outsets with cleanliness read off
  // the labels. Same computer, same increasing-distance order.
  std::vector<std::pair<Distance, ObjectId>> suspects;
  for (const TraceInputs::Inref& in : inputs.inrefs) {
    if (in.garbage_flagged || in.distance <= threshold) continue;
    suspects.emplace_back(in.distance, in.obj);
  }
  std::sort(suspects.begin(), suspects.end());
  store_.Clear();
  store_.Reserve(suspects.size());
  LabelEnv env(labels_, threshold, result);
  BottomUpOutsetComputer<LabelEnv> computer(heap_, store_, env);
  struct Traced {
    Distance outref_distance;
    ObjectId obj;
    OutsetStore::OutsetId outset;
  };
  std::vector<Traced> traced;
  traced.reserve(suspects.size());
  for (const auto& [distance, obj] : suspects) {
    ++result.stats.suspected_inrefs;
    DGC_CHECK_MSG(heap_.Exists(obj), "inref names a swept object " << obj);
    const OutsetStore::OutsetId outset_id = computer.TraceFrom(obj);
    // Drop rule: label <= threshold iff the clean phase would have reached
    // this inref's object (auxiliary invariant of §6.1.1).
    if (labels_.LabelOfSlot(Heap::SlotOfIndex(obj.index)) <= threshold) {
      continue;
    }
    traced.push_back(Traced{NextDistance(distance), obj, outset_id});
  }
  // Resolve outset storage only now: TraceFrom may grow the store and
  // invalidate earlier references.
  std::vector<std::pair<Distance, const std::vector<ObjectId>*>> jobs;
  jobs.reserve(traced.size());
  for (const Traced& t : traced) {
    const std::vector<ObjectId>& outset = store_.Get(t.outset);
    if (outset.empty()) continue;
    jobs.emplace_back(t.outref_distance, &outset);
    result.back_info.inref_outsets.emplace(t.obj, outset);
  }
  FoldOutsets(jobs, result);

  if (config.incremental_trace && cache_.valid) {
    SiteBackInfo patched =
        SiteBackInfo::PatchedFrom(cache_.result.back_info,
                                  result.back_info.inref_outsets,
                                  &result.stats.outsets_reused);
    result.back_info = std::move(patched);
  } else {
    result.back_info.RecomputeInsets();
  }

  // Phase-3 equivalent: the sweep reads labels in storage-slot order — the
  // same order ForEachWithEpochs visits.
  const std::size_t capacity = heap_.slot_capacity();
  for (std::uint64_t slot = 0; slot < capacity; ++slot) {
    if (!heap_.SlotLive(slot)) continue;
    const Distance label = labels_.LabelOfSlot(slot);
    if (label == kDistanceInfinity) {
      result.objects_to_free.push_back(heap_.IdAtSlot(slot));
    } else if (label <= threshold) {
      ++result.stats.objects_marked_clean;
    }
  }
  result.stats.objects_swept = result.objects_to_free.size();

  result.stats.suspect_objects_traced = computer.stats().objects_traced;
  result.stats.suspect_edges_scanned = computer.stats().edges_scanned;
  result.stats.objects_marked_suspect = computer.stats().objects_traced;
  result.stats.outset_stats = store_.stats();
  result.stats.distinct_outsets = store_.distinct_outsets();
  result.stats.back_info_elements = result.back_info.stored_elements();
  result.stats.suspected_outrefs = result.back_info.outref_insets.size();
  // Only the suspect subgraph was walked; that is the whole point.
  result.stats.objects_retraced = computer.stats().objects_traced;
  return result;
}

TraceResult LocalCollector::RunWithLabels(
    const std::vector<ObjectId>& app_roots) {
  const CollectorConfig& config = tables_.config();
  TraceInputs inputs = SnapshotInputs(app_roots);
  const DistanceLabels::ContributionMap contribs = DesiredContributions(inputs);
  if (labels_.fresh()) labels_.ReconcileContributions(contribs);

  TraceResult result;
  bool served = false;
  if (!labels_.fresh()) {
    // Fallback: one classic full trace, and the label plane re-derives
    // itself with a full forward propagation (charged to objects_relabeled).
    result = RunFullTrace(app_roots,
                          config.incremental_trace ? &inputs : nullptr);
    labels_.RebuildFromScratch(contribs);
  } else {
    const ReuseLevel level = config.incremental_trace
                                 ? ClassifyReuse(inputs)
                                 : ReuseLevel::kNone;
    std::vector<OutrefOutcome> clean_outrefs;
    switch (level) {
      case ReuseLevel::kQuiescent:
        result = cache_.result;
        result.epoch = epoch_;
        result.stats.objects_retraced = 0;
        result.stats.outsets_reused = result.back_info.inref_outsets.size();
        result.stats.quiescent_skips = 1;
        result.stats.mark_wall_ns = 0;
        result.stats.mark_steals = 0;
        result.stats.mark_batches = 0;
        break;
      case ReuseLevel::kRefold:
        result = RefoldDistances(inputs);
        break;
      case ReuseLevel::kNone:
        result = ServeFromLabels(
            inputs, config.incremental_trace ? &clean_outrefs : nullptr);
        served = true;
        break;
    }
    const bool shadow_check =
        (config.incremental_trace && config.incremental_differential &&
         level != ReuseLevel::kNone) ||
        config.incremental_distance_differential;
    if (shadow_check) {
      // Shadow full trace at the same epoch (mark stamps are scratch);
      // must not clobber the cache the reuse was built from.
      const TraceResult full = RunFullTrace(app_roots, nullptr);
      CheckEquivalent(result, full);
    }
    if (config.incremental_trace) {
      cache_.inputs = std::move(inputs);
      cache_.result = result;
      if (served) {
        // The label serve observed the whole heap (through the labels), so
        // the cache now describes the present input state exactly.
        cache_.clean_outrefs = std::move(clean_outrefs);
        cache_.valid = true;
        heap_.ClearDirty();
      }
      // Quiescent/refold keep clean_outrefs: both require an identical
      // clean phase.
    }
  }

  if (config.incremental_distance_differential && labels_.fresh()) {
    labels_.VerifyAgainstFullPropagation(contribs);
  }

  // Per-trace deltas against the cumulative label-plane counters (repairs
  // accumulate between traces, at the mutation barrier).
  const DistanceLabels::Stats& ls = labels_.stats();
  result.stats.distance_repairs = ls.repairs - last_label_stats_.repairs;
  result.stats.distance_fallbacks = ls.rebuilds - last_label_stats_.rebuilds;
  result.stats.objects_relabeled =
      ls.objects_relabeled - last_label_stats_.objects_relabeled;
  result.stats.label_serves = served ? 1 : 0;
  last_label_stats_ = ls;
  return result;
}

TraceResult LocalCollector::Run(const std::vector<ObjectId>& app_roots) {
  const auto wall_start = std::chrono::steady_clock::now();
  const CollectorConfig& config = tables_.config();
  ++epoch_;

  TraceResult result;
  if (config.incremental_distance) {
    result = RunWithLabels(app_roots);
  } else if (!config.incremental_trace) {
    result = RunFullTrace(app_roots, nullptr);
  } else {
    TraceInputs inputs = SnapshotInputs(app_roots);
    const ReuseLevel level = ClassifyReuse(inputs);
    switch (level) {
      case ReuseLevel::kQuiescent:
        result = cache_.result;
        result.epoch = epoch_;
        result.stats.objects_retraced = 0;
        result.stats.outsets_reused = result.back_info.inref_outsets.size();
        result.stats.quiescent_skips = 1;
        result.stats.mark_wall_ns = 0;
        result.stats.mark_steals = 0;
        result.stats.mark_batches = 0;
        break;
      case ReuseLevel::kRefold:
        result = RefoldDistances(inputs);
        break;
      case ReuseLevel::kNone:
        result = RunFullTrace(app_roots, &inputs);
        break;
    }
    if (level != ReuseLevel::kNone) {
      if (config.incremental_differential) {
        // Shadow full trace at the same epoch (mark stamps are scratch);
        // must not clobber the cache the reuse was built from.
        const TraceResult full = RunFullTrace(app_roots, nullptr);
        CheckEquivalent(result, full);
      }
      cache_.inputs = std::move(inputs);
      cache_.result = result;
      // clean_outrefs is unchanged: both reuse levels require an
      // identical clean phase.
    }
  }

  result.stats.trace_wall_ns = WallNanosSince(wall_start);

  DGC_LOG_DEBUG("site " << heap_.site() << " trace " << epoch_ << ": "
                        << result.stats.objects_marked_clean << " clean, "
                        << result.stats.objects_marked_suspect << " suspect, "
                        << result.stats.objects_swept << " swept, "
                        << result.stats.suspected_inrefs << " suspected inrefs, "
                        << result.stats.suspected_outrefs
                        << " suspected outrefs"
                        << (result.stats.quiescent_skips != 0
                                ? " (quiescent reuse)"
                                : ""));
  return result;
}

}  // namespace dgc
