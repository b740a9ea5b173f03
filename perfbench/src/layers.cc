#include "layers.h"

#include <algorithm>

#include "spans.h"

namespace perfbench {

ObjectId NewObject(dgc::System& system, SiteId site, std::size_t slots) {
  const Scope span(SpanName::kNewObject);
  return system.NewObject(site, slots);
}

void SetPersistentRoot(dgc::System& system, ObjectId obj) {
  const Scope span(SpanName::kSetRoot);
  system.SetPersistentRoot(obj);
}

void Wire(dgc::System& system, ObjectId source, std::size_t slot,
          ObjectId target) {
  const Scope span(SpanName::kWire);
  system.Wire(source, slot, target);
}

void Unwire(dgc::System& system, ObjectId source, std::size_t slot) {
  const Scope span(SpanName::kUnwire);
  system.Unwire(source, slot);
}

void RunUntilTime(dgc::System& system, SimTime t) {
  const Scope span(SpanName::kRunUntil);
  system.RunUntilTime(t);
}

void LocalTrace(dgc::Site& site) {
  dgc::TraceResult result = [&site] {
    const Scope span(SpanName::kCompute);
    return site.ComputeLocalTrace();
  }();
  const Scope span(SpanName::kApply);
  site.CommitLocalTrace(std::move(result));
}

namespace {

/// InstantiateScaleTopology's calls, in its order, on a System or a GodWorld.
template <typename World>
void BuildHeapOn(World& world, const dgc::workload::ScaleTopologyPlan& plan) {
  const dgc::workload::ScaleTopologySpec& spec = plan.spec;
  std::vector<std::vector<ObjectId>> objects(spec.sites);
  {
    const Scope span(SpanName::kSetupNewObjects);
    for (std::uint32_t site = 0; site < spec.sites; ++site) {
      objects[site].reserve(spec.objects_per_site);
      for (std::uint32_t i = 0; i < spec.objects_per_site; ++i) {
        objects[site].push_back(world.NewObject(site, spec.slots_per_object));
      }
    }
  }
  {
    const Scope span(SpanName::kSetupRoots);
    for (const dgc::workload::PlannedRoot& root : plan.roots) {
      world.SetPersistentRoot(objects[root.site][root.ordinal]);
    }
  }
  const Scope span(SpanName::kSetupWires);
  for (const dgc::workload::PlannedEdge& edge : plan.edges) {
    world.Wire(objects[edge.from_site][edge.from_ordinal], edge.slot,
               objects[edge.to_site][edge.to_ordinal]);
  }
}

}  // namespace

void BuildHeap(dgc::System& system,
               const dgc::workload::ScaleTopologyPlan& plan) {
  BuildHeapOn(system, plan);
}

void BuildHeap(dgc::GodWorld& world,
               const dgc::workload::ScaleTopologyPlan& plan) {
  BuildHeapOn(world, plan);
}

std::vector<ObjectId> StoredObjects(const dgc::System& system) {
  std::vector<ObjectId> ids;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    system.site(s).heap().ForEach(
        [&ids](ObjectId id, const dgc::Object&) { ids.push_back(id); });
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void CycleLedger::Severed(std::vector<ObjectId> objects, SimTime at) {
  ++severed_;
  pending_.push_back(Pending{std::move(objects), at});
}

void SystemWorld::RunRound() {
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    dgc::Site& site = system_.site(s);
    if (!site.trace_in_flight()) LocalTrace(site);
    Settle();
  }
}

void SystemWorld::Settle() {
  const Scope span(SpanName::kRunUntil);
  system_.SettleNetwork();
}

LedgerWorld::LedgerWorld(dgc::GodWorld& inner, Census census,
                         bool traced)
    : inner_(inner),
      census_(std::move(census)),
      traced_(traced),
      ledger_(4096, 0x5c417ULL) {}

ObjectId LedgerWorld::NewObject(SiteId site, std::size_t slots) {
  const Scope span(SpanName::kSocketBuildOp, traced_);
  return inner_.NewObject(site, slots);
}

void LedgerWorld::SetPersistentRoot(ObjectId obj) {
  const Scope span(SpanName::kSocketBuildOp, traced_);
  inner_.SetPersistentRoot(obj);
}

void LedgerWorld::Wire(ObjectId source, std::size_t slot, ObjectId target) {
  edges_[{source, slot}] = target;
  const Scope span(SpanName::kSocketBuildOp, traced_);
  inner_.Wire(source, slot, target);
}

void LedgerWorld::Unwire(ObjectId source, std::size_t slot) {
  const auto cut = edges_.find({source, slot});
  if (cut != edges_.end()) {
    // The ring: slot-0 edges from the cut target back round to it.
    std::vector<ObjectId> ring{cut->second};
    for (auto next = edges_.find({ring.back(), 0});
         next != edges_.end() && next->second != ring.front() &&
         ring.size() <= site_count();
         next = edges_.find({ring.back(), 0})) {
      ring.push_back(next->second);
    }
    ledger_.Severed(std::move(ring), census_.now());
    edges_.erase(cut);
  }
  const Scope span(SpanName::kSocketBuildOp, traced_);
  inner_.Unwire(source, slot);
}

void LedgerWorld::RunRound() {
  {
    const Scope span(SpanName::kRound, traced_);
    const std::uint64_t start = NowNs();
    inner_.RunRound();
    round_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  Harvest();
}

void LedgerWorld::Settle() {
  const Scope span(SpanName::kSettle, traced_);
  inner_.Settle();
}

void LedgerWorld::Harvest() {
  const Scope span(SpanName::kHarvest, traced_);
  std::vector<ObjectId> live;
  if (ledger_.has_pending()) live = census_.survivors();
  ledger_.Harvest(census_.now(), [&live](ObjectId id) {
    return std::binary_search(live.begin(), live.end(), id);
  });
}

}  // namespace perfbench
