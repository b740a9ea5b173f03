// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call from the benchmark into a layer's public function:
// its name, start, duration and the span that was open when it began (its
// parent). Spans are kept in memory and written out once, at exit. Self
// time is computed as each span ends: its duration minus the durations of
// the spans nested directly inside it.
//
// Recording is off unless Enable() was called; a Scope is then one branch.
// Untraced runs go through the same wrappers, so traced minus untraced
// run time is the whole cost of tracing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records, one per layer boundary.
enum class SpanName : std::uint8_t {
  kSetupPlan,          // workload::BuildScaleTopology
  kSetupInstantiate,   // the standing heap's build (the loops below)
  kSetupNewObjects,    // the setup loop of System::NewObject calls
  kSetupRoots,         // the setup loop of System::SetPersistentRoot calls
  kSetupWires,         // the setup loop of System::Wire calls
  kSetupSpawn,         // bringing the sites up: System construction, or
                       // SocketWorld's fork + handshake
  kNewObject,          // System/GodWorld::NewObject
  kSetRoot,            // System/GodWorld::SetPersistentRoot
  kWire,               // System/GodWorld::Wire
  kUnwire,             // System/GodWorld::Unwire
  kRunUntil,           // System::RunUntilTime / SettleNetwork (sim+net+bt)
  kCompute,            // Site::ComputeLocalTrace (localgc + backinfo)
  kApply,              // Site::CommitLocalTrace (core apply + sweep)
  kHarvest,            // the driver's reclamation census
  kSocketBuildOp,      // SocketWorld NewObject/SetPersistentRoot/(Un)Wire
  kRound,              // SocketWorld::RunRound (the socket step loop)
  kSettle,             // SocketWorld::SettleNetwork
  kCount,
};

[[nodiscard]] const char* SpanNameString(SpanName name);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  /// Time in calls made while no other span was open.
  std::uint64_t top_level_ns = 0;
  /// Per-call durations, for percentiles.
  std::vector<std::uint64_t> durations_ns;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t Begin(SpanName name);
  void End(std::uint32_t id);

  [[nodiscard]] const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Writes every span as CSV (id,parent,name,start_ns,dur_ns,self_ns);
  /// parent -1 marks a top-level span. Returns false when the file cannot
  /// be written.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    std::int64_t parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t child_ns = 0;
    SpanName name = SpanName::kCount;
  };

  bool enabled_ = false;
  std::uint64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
  SpanTotals totals_[static_cast<std::size_t>(SpanName::kCount)];
};

/// RAII span around one call; a no-op while tracing is off or `on` is
/// false.
class Scope {
 public:
  explicit Scope(SpanName name, bool on = true) {
    Tracer& tracer = Tracer::Get();
    if (on && tracer.enabled()) {
      id_ = tracer.Begin(name);
      active_ = true;
    }
  }
  ~Scope() {
    if (active_) Tracer::Get().End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t id_ = 0;
  bool active_ = false;
};

/// Monotonic host clock in nanoseconds.
[[nodiscard]] std::uint64_t NowNs();

}  // namespace perfbench
