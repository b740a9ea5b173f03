// The benchmark's three workloads and the figures each run reports.
//
//   scale_openloop  100 sites x 10^4 objects, open-loop request/reply churn
//   cycle_storm     100 sites x 100 objects, 5x the arrival rate, longer rings
//   socket_churn    4 site processes over Unix sockets, scripted ring churn
//
// Every input is generated from the workload seed; see README.md for why
// each workload exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/system.h"
#include "layers.h"
#include "workload/scale.h"
#include "workload/scripted.h"

namespace perfbench {

/// The collector tuning every bench uses (bench_util.h's DefaultConfig).
[[nodiscard]] dgc::CollectorConfig DefaultConfig();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// Oracle and differential violations; empty on a correct run.
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;  // cycles severed
  std::uint64_t failed = 0;     // still present after the quiesce epilogue
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

struct RunOptions {
  std::uint64_t seed = 0;
  /// Record spans (the per-layer split) instead of the end-to-end figures.
  bool trace = false;
  /// Set-up plus drive time a run aims to measure; see Repeats.
  double seconds = 30.0;
  /// Directory for socket state (relative paths keep socket names short).
  std::string work_dir = ".";
};

// --- Sim open-loop driver --------------------------------------------------

/// workload::ScaleDriver with every call into the system made through the
/// spanned wrappers in layers.h. It makes the same calls in the same RNG
/// order, so it reproduces ScaleDriver's outcome exactly (pin_test.cc).
class OpenLoopDriver {
 public:
  OpenLoopDriver(dgc::System& system, const dgc::workload::ScaleDriverSpec& spec);

  void Run();
  /// ScaleDriver::Quiesce: settle, then full rounds until nothing severed
  /// is left or max_rounds pass. Run it untimed, with tracing off.
  bool Quiesce(std::size_t max_rounds = 60);

  [[nodiscard]] const CycleLedger& ledger() const { return ledger_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// Host wall of each round period (round start to the next round start).
  [[nodiscard]] const std::vector<double>& round_ms() const {
    return round_ms_;
  }

 private:
  struct Cohort {
    std::vector<ObjectId> objects;
    ObjectId tether;
    SimTime sever_at = 0;
  };

  [[nodiscard]] SimTime NextExponential(SimTime mean);
  [[nodiscard]] SiteId BiasedSite();
  void Spawn();
  void Sever(Cohort cohort);
  void Harvest();
  void StartStaggeredRound();

  dgc::System& system_;
  dgc::workload::ScaleDriverSpec spec_;
  dgc::Rng rng_;
  std::vector<Cohort> live_;  // sorted by sever_at descending
  std::vector<std::vector<ObjectId>> free_tethers_;
  CycleLedger ledger_;
  std::uint64_t steps_ = 0;
  std::vector<double> round_ms_;
};

// --- Workloads -------------------------------------------------------------

struct SimWorkloadSpec {
  dgc::workload::ScaleTopologySpec topology;
  dgc::workload::ScaleDriverSpec driver;
  /// Drives per untraced run, at most (each on a fresh set-up).
  int max_drives = 1;
};

struct SocketWorkloadSpec {
  std::size_t sites = 4;
  dgc::workload::ScaleTopologySpec heap;
  dgc::ScriptedChurnSpec churn;
  std::uint64_t churn_seed = 11;
  /// Untimed rounds after the churn, so every cut ring is reclaimed.
  std::size_t drain_rounds = 12;
  int max_drives = 1;
};

[[nodiscard]] SimWorkloadSpec ScaleOpenLoopSpec(std::uint64_t seed);
[[nodiscard]] SimWorkloadSpec CycleStormSpec(std::uint64_t seed);
[[nodiscard]] SocketWorkloadSpec SocketChurnSpec(std::uint64_t seed);

Outcome RunSimWorkload(const SimWorkloadSpec& spec, const RunOptions& options);
Outcome RunSocketWorkload(const SocketWorkloadSpec& spec,
                          const RunOptions& options);

}  // namespace perfbench
