// The benchmark's calls into each layer's public functions, each wrapped in
// its span. Nothing under src/ is instrumented: these wrappers are the only
// place time is attributed to a layer.
//
//   store / refs  System::NewObject, SetPersistentRoot, Wire, Unwire
//   localgc       Site::ComputeLocalTrace (with the backinfo outsets)
//   core          Site::CommitLocalTrace (apply + sweep)
//   sim/net/bt    System::RunUntilTime, minus the trace spans nested in it
//   socket        the GodWorld surface of a SocketWorld
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "core/latency_reservoir.h"
#include "core/system.h"
#include "workload/scale.h"
#include "workload/scripted.h"

namespace perfbench {

using dgc::ObjectId;
using dgc::SimTime;
using dgc::SiteId;

dgc::ObjectId NewObject(dgc::System& system, SiteId site, std::size_t slots);
void SetPersistentRoot(dgc::System& system, ObjectId obj);
void Wire(dgc::System& system, ObjectId source, std::size_t slot,
          ObjectId target);
void Unwire(dgc::System& system, ObjectId source, std::size_t slot);
void RunUntilTime(dgc::System& system, SimTime t);
/// One local trace at `site`: StartLocalTrace split into its compute and
/// commit halves, each in its own span.
void LocalTrace(dgc::Site& site);

/// InstantiateScaleTopology's calls, in its order, spanned as three bulk
/// loops; on a System the calls themselves are not spanned.
void BuildHeap(dgc::System& system,
               const dgc::workload::ScaleTopologyPlan& plan);
/// The same build through a GodWorld, whose calls span themselves.
void BuildHeap(dgc::GodWorld& world,
               const dgc::workload::ScaleTopologyPlan& plan);

/// Sorted ids of every object stored in `system` (the sim census).
[[nodiscard]] std::vector<ObjectId> StoredObjects(const dgc::System& system);

/// Severed-cycle bookkeeping shared by every workload: a cycle is collected
/// once none of its objects exists; its time-to-collect runs from the sever
/// instant to the harvest that first sees it gone. Every harvest also
/// samples the backlog (cycles severed and not yet collected).
class CycleLedger {
 public:
  CycleLedger(std::size_t reservoir_capacity, std::uint64_t reservoir_seed)
      : ttc_(reservoir_capacity, reservoir_seed) {}

  void Severed(std::vector<ObjectId> objects, SimTime at);
  /// Records every pending cycle whose objects are all gone at `now`.
  template <typename ExistsFn>
  void Harvest(SimTime now, const ExistsFn& exists) {
    for (std::size_t i = 0; i < pending_.size();) {
      bool gone = true;
      for (const ObjectId obj : pending_[i].objects) {
        if (exists(obj)) {
          gone = false;
          break;
        }
      }
      if (!gone) {
        ++i;
        continue;
      }
      ttc_.Record(now - pending_[i].severed_at);
      ++collected_;
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
    }
    backlog_sum_ += pending_.size();
    ++harvests_;
  }

  [[nodiscard]] std::uint64_t severed() const { return severed_; }
  [[nodiscard]] std::uint64_t collected() const { return collected_; }
  [[nodiscard]] std::size_t backlog() const { return pending_.size(); }
  /// Backlog averaged over every harvest so far.
  [[nodiscard]] double mean_backlog() const {
    return harvests_ == 0 ? 0.0
                          : static_cast<double>(backlog_sum_) /
                                static_cast<double>(harvests_);
  }
  [[nodiscard]] bool has_pending() const { return !pending_.empty(); }
  [[nodiscard]] const dgc::LatencyReservoir& ttc() const { return ttc_; }

 private:
  struct Pending {
    std::vector<ObjectId> objects;
    SimTime severed_at = 0;
  };
  std::vector<Pending> pending_;
  std::uint64_t severed_ = 0;
  std::uint64_t collected_ = 0;
  std::uint64_t backlog_sum_ = 0;
  std::uint64_t harvests_ = 0;
  dgc::LatencyReservoir ttc_;
};

/// The GodWorld surface of a System, every call through the spanned
/// wrappers above. RunRound is System::RunRound's sequential schedule with
/// each StartLocalTrace split by LocalTrace; Settle is spanned as
/// sim.run_until, since it drives the same event loop to idle.
class SystemWorld final : public dgc::GodWorld {
 public:
  explicit SystemWorld(dgc::System& system) : system_(system) {}

  [[nodiscard]] std::size_t site_count() const override {
    return system_.site_count();
  }
  ObjectId NewObject(SiteId site, std::size_t slots) override {
    return perfbench::NewObject(system_, site, slots);
  }
  void SetPersistentRoot(ObjectId obj) override {
    perfbench::SetPersistentRoot(system_, obj);
  }
  void Wire(ObjectId source, std::size_t slot, ObjectId target) override {
    perfbench::Wire(system_, source, slot, target);
  }
  void Unwire(ObjectId source, std::size_t slot) override {
    perfbench::Unwire(system_, source, slot);
  }
  void RunRound() override;
  void Settle() override;

 private:
  dgc::System& system_;
};

/// A GodWorld that forwards to another and keeps a CycleLedger of the
/// scripted churn's rings. Every Unwire in the script cuts a tether; the
/// ring behind it is found by following slot-0 edges from the tether's old
/// target, and the ledger is harvested after every round. RunRound's host
/// latency is kept whether or not tracing is on. With `traced` every call
/// is spanned under the socket.* names, and each harvest as well.
class LedgerWorld final : public dgc::GodWorld {
 public:
  struct Census {
    std::function<SimTime()> now;
    /// Sorted ids of every live object.
    std::function<std::vector<ObjectId>()> survivors;
  };

  LedgerWorld(dgc::GodWorld& inner, Census census, bool traced);

  [[nodiscard]] std::size_t site_count() const override {
    return inner_.site_count();
  }
  ObjectId NewObject(SiteId site, std::size_t slots) override;
  void SetPersistentRoot(ObjectId obj) override;
  void Wire(ObjectId source, std::size_t slot, ObjectId target) override;
  void Unwire(ObjectId source, std::size_t slot) override;
  void RunRound() override;
  void Settle() override;

  /// Census of the pending rings now (also run after every round).
  void Harvest();

  [[nodiscard]] const CycleLedger& ledger() const { return ledger_; }
  [[nodiscard]] const std::vector<double>& round_ms() const {
    return round_ms_;
  }

 private:
  dgc::GodWorld& inner_;
  Census census_;
  bool traced_;
  std::map<std::pair<ObjectId, std::size_t>, ObjectId> edges_;
  CycleLedger ledger_;
  std::vector<double> round_ms_;
};

}  // namespace perfbench
