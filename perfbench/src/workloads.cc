#include "workloads.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "net/socket_world.h"
#include "spans.h"

namespace perfbench {

dgc::CollectorConfig DefaultConfig() {
  dgc::CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_threshold_increment = 2;
  return config;
}

namespace {

using dgc::System;

/// BuildScaleTopology's rank-biased draw, floor(n * u^bias).
std::uint32_t BiasedRank(dgc::Rng& rng, std::size_t n, double bias) {
  const double u = rng.NextDouble();
  const auto rank =
      static_cast<std::uint32_t>(std::pow(u, bias) * static_cast<double>(n));
  return std::min<std::uint32_t>(rank, static_cast<std::uint32_t>(n - 1));
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- CPU placement ---------------------------------------------------------
//
// The vCPUs of a shared VM run at different speeds: on the reference host a
// fixed loop ran 30% faster on one of the four than on another, and which
// one is fast changes over minutes. A lone busy thread stays on the CPU the
// scheduler first gave it, so a run measured whichever vCPU it drew, and
// scale_openloop's run_s read either about 20 s or about 25 s. Every run
// therefore spreads its work evenly over all the CPUs it may use.

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(sched_getcpu());
  return cpus;
}

/// Pins thread `tid` (0: the calling thread) to `cpu`.
void PinTo(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(tid, sizeof one, &one) != 0) {
    std::perror("perfbench: sched_setaffinity");
  }
}

/// While it lives, moves the thread that made it to the next allowed CPU
/// every kPeriod, round-robin, from a helper thread of its own. Each move
/// leaves the thread's caches behind: every 100 ms, that made cycle_storm
/// 10% slower; every second, it costs nothing measurable.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kPeriod{1000};

  CpuRotation() : tid_(gettid()), cpus_(AllowedCpus()) {
    if (cpus_.size() > 1) thread_ = std::thread([this] { Loop(); });
  }
  ~CpuRotation() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    // Give the thread back every CPU it had.
    cpu_set_t all;
    CPU_ZERO(&all);
    for (const int cpu : cpus_) CPU_SET(cpu, &all);
    sched_setaffinity(tid_, sizeof all, &all);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 0; !stop_; ++i) {
      PinTo(tid_, cpus_[i % cpus_.size()]);
      cv_.wait_for(lock, kPeriod, [this] { return stop_; });
    }
  }

  const pid_t tid_;
  const std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank quantile, as LatencyReservoir::Quantile computes it.
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return static_cast<double>(values[std::min(rank, values.size() - 1)]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// VmHWM of process `pid` ("self" for this one) in MiB; 0 if unreadable.
double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// The program's own counters that the per-layer split reads. Every field
/// is cumulative, so a phase's figure is a difference of two readings.
struct Counters {
  dgc::NetworkStats net;
  dgc::BackTracerStats bt;
  std::uint64_t local_traces = 0;
  std::uint64_t mark_ns = 0;
  std::uint64_t objects_marked = 0;
  std::uint64_t slot_grows = 0;
  std::uint64_t slot_reuses = 0;
  std::uint64_t reclaimed = 0;
  // Socket transport (zero for a System).
  dgc::SocketCounters socket;
  std::uint64_t snapshot_bytes = 0;
};

Counters ReadCounters(const System& system) {
  Counters c;
  c.net = system.network().stats();
  c.bt = system.AggregateBackTracerStats();
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const dgc::SiteStats& stats = system.site(s).stats();
    c.local_traces += stats.local_traces;
    c.mark_ns += stats.mark_wall_ns;
    c.objects_marked += stats.objects_marked;
    c.slot_grows += stats.table_slot_grows;
    c.slot_reuses += stats.table_slot_reuses;
  }
  c.reclaimed = system.TotalObjectsReclaimed();
  return c;
}

std::uint64_t BackTraceMessages(const dgc::NetworkStats& net) {
  return net.count_of<dgc::BackLocalCallMsg>() +
         net.count_of<dgc::BackRemoteCallMsg>() +
         net.count_of<dgc::BackReplyMsg>() +
         net.count_of<dgc::BackReportMsg>() +
         net.count_of<dgc::BackCallBatchMsg>();
}

/// The simulated-clock outcome of the driven phase.
struct ClockOutcome {
  std::uint64_t severed = 0;
  std::uint64_t collected = 0;
  std::uint64_t backlog = 0;
  double mean_backlog = 0.0;
  double ttc_p50 = 0.0;
  double ttc_p99 = 0.0;

  friend bool operator==(const ClockOutcome&, const ClockOutcome&) = default;
};

ClockOutcome Snapshot(const CycleLedger& ledger) {
  return ClockOutcome{ledger.severed(), ledger.collected(), ledger.backlog(),
                      ledger.mean_backlog(),
                      static_cast<double>(ledger.ttc().Quantile(0.5)),
                      static_cast<double>(ledger.ttc().Quantile(0.99))};
}

/// What one run measured, before it is named and unitised.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> run_s;  // one per drive
  double peak_rss_mb = 0.0;
  ClockOutcome clock;
  std::uint64_t messages = 0;
  std::uint64_t steps = 0;
  // Every round latency of every drive, pooled: a drive's p50 is about
  // one round of its ramp-up, so a per-drive median swings with the host.
  std::vector<double> round_ms;
  Counters layers;  // drive-phase deltas
  double snapshot_step_ratio = 0.0;  // socket_churn, traced runs
};

std::vector<Metric> EndToEnd(const Measured& m) {
  return {
      {"setup_s", Median(m.setup_s), "s"},
      {"run_s", Median(m.run_s), "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MiB"},
      {"ttc_p50_ticks", m.clock.ttc_p50, "ticks"},
      {"ttc_p99_ticks", m.clock.ttc_p99, "ticks"},
      {"cycles_collected", static_cast<double>(m.clock.collected), "count"},
      {"backlog", m.clock.mean_backlog, "count"},
      {"msgs_per_cycle",
       Ratio(static_cast<double>(m.messages),
             static_cast<double>(m.clock.collected)),
       "msgs"},
      {"step_ms", Ratio(Median(m.run_s) * 1e3, static_cast<double>(m.steps)),
       "ms"},
      {"round_ms_p50", Quantile(m.round_ms, 0.5), "ms"},
      {"round_ms_p90", Quantile(m.round_ms, 0.9), "ms"},
  };
}

double SpanSeconds(SpanName name) {
  return Seconds(Tracer::Get().totals(name).total_ns);
}

double SpanQuantileMs(SpanName name, double q) {
  return Quantile(Tracer::Get().totals(name).durations_ns, q) / 1e6;
}

/// The per-layer split. `build_ops` names the spans whose per-call
/// latencies make build_op_us: the BuildOp frames of a socket world, the
/// System calls of a sim one. `drive` names the calls the driver makes
/// itself; run time outside them is the driver's own.
std::vector<Metric> PerLayer(const Measured& m, const Outcome& out,
                             const std::vector<SpanName>& build_ops,
                             const std::vector<SpanName>& drive) {
  const Tracer& tracer = Tracer::Get();
  const Counters& c = m.layers;
  const auto setups = static_cast<double>(m.setup_s.size());
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<std::uint64_t> op_ns;
  for (const SpanName name : build_ops) {
    const auto& d = tracer.totals(name).durations_ns;
    op_ns.insert(op_ns.end(), d.begin(), d.end());
  }
  double driver_s = Median(m.run_s);
  for (const SpanName name : drive) {
    driver_s -= Seconds(tracer.totals(name).top_level_ns);
  }
  const double compute_s = SpanSeconds(SpanName::kCompute);
  const double mark_s = Seconds(c.mark_ns);
  const double garbage = count(c.bt.traces_completed_garbage);
  const double live = count(c.bt.traces_completed_live);
  return {
      {"localgc.compute_s", compute_s, "s"},
      {"localgc.compute_ms_p50", SpanQuantileMs(SpanName::kCompute, 0.5), "ms"},
      {"localgc.compute_ms_p99", SpanQuantileMs(SpanName::kCompute, 0.99),
       "ms"},
      {"localgc.traces", count(c.local_traces), "count"},
      {"localgc.mark_s", mark_s, "s"},
      {"localgc.nonmark_s", compute_s - mark_s, "s"},
      {"localgc.objects_marked", count(c.objects_marked), "count"},
      {"core.apply_s", SpanSeconds(SpanName::kApply), "s"},
      {"core.apply_ms_p99", SpanQuantileMs(SpanName::kApply, 0.99), "ms"},
      {"core.objects_reclaimed", count(c.reclaimed), "count"},
      {"sim.run_until_self_s",
       Seconds(tracer.totals(SpanName::kRunUntil).self_ns), "s"},
      {"net.msgs_sent", count(c.net.inter_site_sent), "count"},
      {"net.wire_bytes", count(c.net.wire_bytes), "bytes"},
      {"net.msgs_backtrace", count(BackTraceMessages(c.net)), "count"},
      {"net.msgs_update", count(c.net.count_of<dgc::UpdateMsg>()), "count"},
      {"net.msgs_insert",
       count(c.net.count_of<dgc::InsertMsg>() +
             c.net.count_of<dgc::InsertAckMsg>()),
       "count"},
      {"backtrace.traces_started", count(c.bt.traces_started), "count"},
      {"backtrace.verdicts_garbage", garbage, "count"},
      {"backtrace.verdicts_live", live, "count"},
      {"backtrace.precision", Ratio(garbage, garbage + live), "ratio"},
      {"backtrace.traces_per_cycle",
       Ratio(count(c.bt.traces_started), count(m.clock.collected)), "ratio"},
      {"backtrace.calls_handled", count(c.bt.calls_handled), "count"},
      {"backtrace.timeouts", count(c.bt.timeouts), "count"},
      {"refs.wire_s", SpanSeconds(SpanName::kWire) +
                          SpanSeconds(SpanName::kUnwire), "s"},
      {"refs.wire_calls",
       count(tracer.totals(SpanName::kWire).calls +
             tracer.totals(SpanName::kUnwire).calls),
       "count"},
      {"refs.table_slot_grows", count(c.slot_grows), "count"},
      {"refs.table_slot_reuses", count(c.slot_reuses), "count"},
      {"store.new_object_s", SpanSeconds(SpanName::kNewObject), "s"},
      {"setup.plan_s", SpanSeconds(SpanName::kSetupPlan) / setups, "s"},
      {"setup.spawn_s", SpanSeconds(SpanName::kSetupSpawn) / setups, "s"},
      {"setup.instantiate_s", SpanSeconds(SpanName::kSetupInstantiate) / setups,
       "s"},
      {"setup.new_objects_s", SpanSeconds(SpanName::kSetupNewObjects) / setups,
       "s"},
      {"setup.wires_s", SpanSeconds(SpanName::kSetupWires) / setups, "s"},
      {"workload.harvest_s", SpanSeconds(SpanName::kHarvest), "s"},
      {"workload.driver_self_s", driver_s, "s"},
      {"workload.backlog_end", count(m.clock.backlog), "count"},
      {"workload.uncollected_frac",
       Ratio(count(out.failed), count(out.attempted)), "ratio"},
      {"socket.build_op_us_p50", Quantile(op_ns, 0.5) / 1e3, "us"},
      {"socket.build_op_us_p99", Quantile(op_ns, 0.99) / 1e3, "us"},
      {"socket.step_requests", count(c.socket.step_requests), "count"},
      {"socket.step_timeouts", count(c.socket.step_timeouts), "count"},
      {"socket.late_replies", count(c.socket.late_replies), "count"},
      {"snapshot.bytes", count(c.snapshot_bytes), "bytes"},
      {"snapshot.step_ratio", m.snapshot_step_ratio, "ratio"},
      {"trace.run_s", Median(m.run_s), "s"},
      {"trace.spans", count(tracer.span_count()), "count"},
  };
}

/// Set-ups per run, at least; set-up time is reported as their median.
constexpr int kMinSetups = 3;
/// Before each drive, set-up-only repetitions go on, up to kMaxSetups in
/// the run, until this much set-up time has been measured since the last
/// drive. A set-up of a few milliseconds (cycle_storm's is 4 ms) is then the
/// median of many, taken all through the run: made all at its start, they
/// read the host of one moment, and their median spread 0.27 over ten seeds.
constexpr double kSetupSecondsPerDrive = 0.1;
constexpr int kMaxSetups = 200;

/// The repetition schedule of one run: set-up + drive repetitions, each
/// drive after a few set-up-only ones (see kSetupSecondsPerDrive), until
/// `seconds` of set-up and drive time have been measured or `max_drives`
/// drives are done. Traced runs drive once.
/// Every drive of one seed must land on the same simulated-clock outcome.
class Repeats {
 public:
  Repeats(const RunOptions& options, int max_drives)
      : seconds_(options.seconds),
        max_drives_(options.trace ? 1 : max_drives) {}

  void SetUp(Measured& m, double seconds) {
    m.setup_s.push_back(seconds);
    since_drive_s_ += seconds;
    measured_s_ += seconds;
  }
  /// Whether to set up once more before the next drive, whose own set-up
  /// makes one more.
  [[nodiscard]] bool SetUpAgain(const Measured& m) const {
    const auto setups = static_cast<int>(m.setup_s.size()) + 1;
    return setups < kMinSetups ||
           (setups < kMaxSetups && since_drive_s_ < kSetupSecondsPerDrive);
  }
  [[nodiscard]] bool DriveAgain(const Measured& m) const {
    const auto drives = static_cast<int>(m.run_s.size());
    return drives == 0 || (drives < max_drives_ && measured_s_ < seconds_);
  }
  void Drove(Measured& m, double run_s, const std::vector<double>& round_ms,
             const ClockOutcome& clock, Outcome& out) {
    if (!m.run_s.empty() && !(clock == m.clock)) {
      out.violations.push_back(
          "two drives of one seed reached different simulated-clock outcomes");
    }
    m.run_s.push_back(run_s);
    m.round_ms.insert(m.round_ms.end(), round_ms.begin(), round_ms.end());
    std::fprintf(stderr,
                 "perfbench: drive %zu: run_s %.4f round_ms p50 %.3f p90 %.3f\n",
                 m.run_s.size(), run_s, Quantile(round_ms, 0.5),
                 Quantile(round_ms, 0.9));
    m.clock = clock;
    measured_s_ += run_s;
    since_drive_s_ = 0.0;
  }

 private:
  double seconds_;
  int max_drives_;
  double measured_s_ = 0.0;
  double since_drive_s_ = 0.0;
};

Counters Delta(const Counters& after, const Counters& before) {
  Counters d = after;
  const auto sub = [](std::uint64_t& a, std::uint64_t b) { a -= b; };
  sub(d.bt.traces_started, before.bt.traces_started);
  sub(d.bt.traces_completed_garbage, before.bt.traces_completed_garbage);
  sub(d.bt.traces_completed_live, before.bt.traces_completed_live);
  sub(d.bt.calls_handled, before.bt.calls_handled);
  sub(d.bt.timeouts, before.bt.timeouts);
  sub(d.local_traces, before.local_traces);
  sub(d.mark_ns, before.mark_ns);
  sub(d.objects_marked, before.objects_marked);
  sub(d.slot_grows, before.slot_grows);
  sub(d.slot_reuses, before.slot_reuses);
  sub(d.reclaimed, before.reclaimed);
  sub(d.socket.step_requests, before.socket.step_requests);
  sub(d.socket.step_timeouts, before.socket.step_timeouts);
  sub(d.socket.late_replies, before.socket.late_replies);
  return d;
}

void Check(Outcome& out, const std::string& what, const std::string& verdict) {
  if (!verdict.empty()) out.violations.push_back(what + ": " + verdict);
}

}  // namespace

// --- Workload specs --------------------------------------------------------

SimWorkloadSpec ScaleOpenLoopSpec(std::uint64_t seed) {
  SimWorkloadSpec spec;
  spec.topology.sites = 100;
  spec.topology.objects_per_site = 5'000;
  spec.topology.seed = 42 + seed;
  spec.driver.duration = 20'000;
  spec.driver.mean_interarrival = 5;
  spec.driver.mean_lifetime = 400;
  spec.driver.min_cycle_span = 2;
  spec.driver.max_cycle_span = 4;
  spec.driver.round_period = 500;
  spec.driver.seed = 7 + seed;
  return spec;
}

SimWorkloadSpec CycleStormSpec(std::uint64_t seed) {
  SimWorkloadSpec spec = ScaleOpenLoopSpec(seed);
  spec.topology.objects_per_site = 100;
  spec.driver.mean_interarrival = 1;
  spec.driver.max_cycle_span = 8;
  spec.max_drives = 24;
  return spec;
}

SocketWorkloadSpec SocketChurnSpec(std::uint64_t seed) {
  SocketWorkloadSpec spec;
  spec.sites = 4;
  spec.heap.sites = spec.sites;
  spec.heap.objects_per_site = 250;
  spec.heap.seed = 42 + seed;
  spec.churn.rounds = 600;
  spec.churn.rings_per_round = 4;
  spec.churn.ring_span = 3;
  spec.churn.locals_per_round = 2;
  spec.churn.cut_probability = 0.6;
  spec.churn.drain_rounds = 0;  // the drain is the untimed epilogue
  spec.churn_seed = 11 + seed;
  spec.max_drives = 40;
  return spec;
}

// --- OpenLoopDriver (workload::ScaleDriver, call for call) -----------------

OpenLoopDriver::OpenLoopDriver(System& system,
                               const dgc::workload::ScaleDriverSpec& spec)
    : system_(system),
      spec_(spec),
      rng_(spec.seed),
      free_tethers_(system.site_count()),
      ledger_(spec.reservoir_capacity, spec.seed ^ 0x7e5e4c01ULL) {
  DGC_CHECK(spec_.mean_interarrival > 0);
  DGC_CHECK(spec_.min_cycle_span >= 2);
  DGC_CHECK(spec_.max_cycle_span >= spec_.min_cycle_span);
  DGC_CHECK(system_.site_count() >= spec_.max_cycle_span);
}

SimTime OpenLoopDriver::NextExponential(SimTime mean) {
  const double u = rng_.NextDouble();
  const double draw = -std::log(1.0 - u) * static_cast<double>(mean);
  return std::max<SimTime>(1, static_cast<SimTime>(draw));
}

SiteId OpenLoopDriver::BiasedSite() {
  return BiasedRank(rng_, system_.site_count(), spec_.hub_bias);
}

void OpenLoopDriver::Run() {
  const SimTime start = system_.now();
  const SimTime end = start + spec_.duration;
  SimTime next_spawn = start + NextExponential(spec_.mean_interarrival);
  SimTime next_round = start + spec_.round_period;
  std::uint64_t round_started_ns = NowNs();
  for (;;) {
    SimTime next = std::min(next_spawn, next_round);
    if (!live_.empty()) next = std::min(next, live_.back().sever_at);
    if (next > end) break;
    ++steps_;
    RunUntilTime(system_, next);
    while (!live_.empty() && live_.back().sever_at <= next) {
      Cohort cohort = std::move(live_.back());
      live_.pop_back();
      Sever(std::move(cohort));
    }
    if (next_spawn <= next) {
      Spawn();
      next_spawn = next + NextExponential(spec_.mean_interarrival);
    }
    if (next_round <= next) {
      Harvest();
      const std::uint64_t now_ns = NowNs();
      round_ms_.push_back(static_cast<double>(now_ns - round_started_ns) /
                          1e6);
      round_started_ns = now_ns;
      StartStaggeredRound();
      next_round += spec_.round_period;
    }
  }
  RunUntilTime(system_, end);
  Harvest();
}

void OpenLoopDriver::Spawn() {
  const std::size_t span =
      spec_.min_cycle_span +
      rng_.NextBelow(spec_.max_cycle_span - spec_.min_cycle_span + 1);
  std::vector<SiteId> hops;
  hops.reserve(span);
  hops.push_back(BiasedSite());
  while (hops.size() < span) {
    SiteId s = BiasedSite();
    while (std::find(hops.begin(), hops.end(), s) != hops.end()) {
      s = (s + 1) % static_cast<SiteId>(system_.site_count());
    }
    hops.push_back(s);
  }

  Cohort cohort;
  cohort.objects.reserve(span);
  for (const SiteId s : hops) {
    cohort.objects.push_back(NewObject(system_, s, 2));
  }
  for (std::size_t i = 0; i < span; ++i) {
    Wire(system_, cohort.objects[i], 0, cohort.objects[(i + 1) % span]);
    Wire(system_, cohort.objects[i], 1, cohort.objects[(i + span - 1) % span]);
  }

  const SiteId client = hops.front();
  if (!free_tethers_[client].empty()) {
    cohort.tether = free_tethers_[client].back();
    free_tethers_[client].pop_back();
  } else {
    cohort.tether = NewObject(system_, client, 1);
    SetPersistentRoot(system_, cohort.tether);
  }
  Wire(system_, cohort.tether, 0, cohort.objects.front());

  cohort.sever_at = system_.now() + NextExponential(spec_.mean_lifetime);
  const auto pos = std::upper_bound(
      live_.begin(), live_.end(), cohort.sever_at,
      [](SimTime t, const Cohort& c) { return t > c.sever_at; });
  live_.insert(pos, std::move(cohort));
}

void OpenLoopDriver::Sever(Cohort cohort) {
  Unwire(system_, cohort.tether, 0);
  free_tethers_[cohort.tether.site].push_back(cohort.tether);
  // Timed from the scheduled instant: the clock stands exactly there.
  ledger_.Severed(std::move(cohort.objects), cohort.sever_at);
}

void OpenLoopDriver::Harvest() {
  const Scope span(SpanName::kHarvest);
  ledger_.Harvest(system_.now(),
                  [this](ObjectId obj) { return system_.ObjectExists(obj); });
}

void OpenLoopDriver::StartStaggeredRound() {
  const SimTime base = system_.now();
  SimTime offset = 0;
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    dgc::Site* site = &system_.site(s);
    system_.SchedulerFor(s).At(base + offset, [site] {
      if (!site->trace_in_flight()) LocalTrace(*site);
    });
    offset += spec_.round_stagger;
  }
}

bool OpenLoopDriver::Quiesce(std::size_t max_rounds) {
  system_.SettleNetwork();
  for (std::size_t i = 0; i < max_rounds; ++i) {
    Harvest();
    if (!ledger_.has_pending()) return true;
    system_.RunRound();
  }
  Harvest();
  return !ledger_.has_pending();
}

// --- Sim workloads ---------------------------------------------------------

Outcome RunSimWorkload(const SimWorkloadSpec& spec, const RunOptions& options) {
  Outcome out;
  Measured m;
  Repeats repeats(options, spec.max_drives);
  std::unique_ptr<OpenLoopDriver> driver;
  std::unique_ptr<System> system;
  const auto setup = [&] {
    driver.reset();
    system.reset();
    const std::uint64_t start = NowNs();
    dgc::workload::ScaleTopologyPlan plan;
    {
      const Scope span(SpanName::kSetupPlan);
      plan = dgc::workload::BuildScaleTopology(spec.topology);
    }
    {
      const Scope span(SpanName::kSetupSpawn);
      system = std::make_unique<System>(spec.topology.sites, DefaultConfig());
    }
    {
      const Scope span(SpanName::kSetupInstantiate);
      BuildHeap(*system, plan);
    }
    system->network().ResetStats();
    repeats.SetUp(m, Seconds(NowNs() - start));
  };

  {
    const CpuRotation rotation;
    while (repeats.DriveAgain(m)) {
      while (repeats.SetUpAgain(m)) setup();
      setup();
      const Counters before = ReadCounters(*system);
      driver = std::make_unique<OpenLoopDriver>(*system, spec.driver);
      const std::uint64_t start = NowNs();
      driver->Run();
      const double run_s = Seconds(NowNs() - start);
      m.layers = Delta(ReadCounters(*system), before);
      m.messages = m.layers.net.inter_site_sent;
      m.steps = driver->steps();
      repeats.Drove(m, run_s, driver->round_ms(), Snapshot(driver->ledger()),
                    out);
    }
  }
  m.peak_rss_mb = PeakRssMb("self");
  Tracer::Get().Enable(false);

  // Untimed correctness epilogue, on the last driven world.
  driver->Quiesce();
  out.attempted = driver->ledger().severed();
  out.failed = driver->ledger().backlog();
  Check(out, "safety", system->CheckSafety());
  Check(out, "completeness", system->CheckCompleteness());
  Check(out, "referential integrity", system->CheckReferentialIntegrity());

  out.end_to_end = EndToEnd(m);
  out.per_layer = PerLayer(
      m, out,
      {SpanName::kNewObject, SpanName::kSetRoot, SpanName::kWire,
       SpanName::kUnwire},
      {SpanName::kRunUntil, SpanName::kNewObject, SpanName::kSetRoot,
       SpanName::kWire, SpanName::kUnwire, SpanName::kHarvest});
  return out;
}

// --- Socket workload -------------------------------------------------------

namespace {

/// Per-object survival in script order (ring objects, tether, locals): the
/// census BM_Transport_ScriptedChurn compares across backends.
std::vector<bool> Fates(const dgc::ScriptedChurnResult& script,
                        const std::vector<ObjectId>& survivors) {
  const auto alive = [&survivors](ObjectId id) {
    return std::binary_search(survivors.begin(), survivors.end(), id);
  };
  std::vector<bool> fates;
  for (const dgc::ScriptedRing& ring : script.rings) {
    for (const ObjectId obj : ring.objects) fates.push_back(alive(obj));
    fates.push_back(alive(ring.tether));
  }
  for (const ObjectId obj : script.locals) fates.push_back(alive(obj));
  return fates;
}

std::uint64_t SnapshotBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") bytes += entry.file_size();
  }
  return bytes;
}

/// The sim replay's outcome, to hold the socket run against.
struct Replay {
  ClockOutcome clock;
  std::vector<bool> fates;
  std::uint64_t reclaimed = 0;
  std::uint64_t objects_left = 0;
};

/// A socket world in a state directory the benchmark owns (inside its
/// checkout, never /tmp), removed with the world.
struct OwnedSocketWorld {
  OwnedSocketWorld(const SocketWorkloadSpec& spec, const std::string& dir,
                   bool snapshot_each_step)
      : dir(dir) {
    std::filesystem::create_directories(dir);
    dgc::SocketWorldOptions options;
    options.site_count = spec.sites;
    options.collector = DefaultConfig();
    options.seed = spec.churn_seed;
    options.state_dir = dir;
    options.network.socket.snapshot_each_step = snapshot_each_step;
    world = std::make_unique<dgc::SocketWorld>(std::move(options));
  }
  ~OwnedSocketWorld() {
    world.reset();  // shuts the site processes down and waits for them
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  OwnedSocketWorld(const OwnedSocketWorld&) = delete;
  OwnedSocketWorld& operator=(const OwnedSocketWorld&) = delete;

  std::string dir;
  std::unique_ptr<dgc::SocketWorld> world;
};

Replay ReplayOnSim(const SocketWorkloadSpec& spec,
                   const dgc::workload::ScaleTopologyPlan& plan,
                   Counters& layers) {
  System system(spec.sites, DefaultConfig(), dgc::NetworkConfig{},
                spec.churn_seed);
  SystemWorld inner(system);
  LedgerWorld world(
      inner,
      {[&system] { return system.now(); },
       [&system] { return StoredObjects(system); }},
      /*traced=*/false);
  BuildHeap(world, plan);
  world.Settle();
  system.network().ResetStats();
  const Counters before = ReadCounters(system);
  const dgc::ScriptedChurnResult script =
      dgc::RunScriptedChurn(world, spec.churn_seed, spec.churn);
  layers = Delta(ReadCounters(system), before);

  Replay replay;
  replay.clock = Snapshot(world.ledger());
  for (std::size_t i = 0; i < spec.drain_rounds; ++i) world.RunRound();
  replay.fates = Fates(script, StoredObjects(system));
  replay.reclaimed = system.TotalObjectsReclaimed();
  replay.objects_left = system.TotalObjects();
  return replay;
}

/// The timed drives run without snapshots: with a snapshot rename after
/// every step, disk latency dominates the step and the run's wall spreads
/// several-fold on a shared disk. A traced run measures the snapshot cost
/// on one extra, untimed drive instead: its per-step wall over the timed
/// drive's, and the snapshot files' size.
struct SnapshotProbe {
  double step_ms = 0.0;
  std::uint64_t bytes = 0;
};

SnapshotProbe ProbeSnapshots(const SocketWorkloadSpec& spec,
                             const dgc::workload::ScaleTopologyPlan& plan,
                             const std::string& dir) {
  OwnedSocketWorld owned(spec, dir, /*snapshot_each_step=*/true);
  dgc::SocketWorld& sw = *owned.world;
  dgc::SocketGodWorld god(sw);
  BuildHeap(god, plan);
  sw.SettleNetwork();
  const std::uint64_t steps = sw.transport().socket_counters().step_requests;
  const std::uint64_t start = NowNs();
  (void)dgc::RunScriptedChurn(god, spec.churn_seed, spec.churn);
  SnapshotProbe probe;
  probe.step_ms =
      static_cast<double>(NowNs() - start) / 1e6 /
      static_cast<double>(sw.transport().socket_counters().step_requests -
                          steps);
  probe.bytes = SnapshotBytes(sw.state_dir());
  return probe;
}

std::string StateDir(const RunOptions& options, int world) {
  return options.work_dir + "/socket-" + std::to_string(getpid()) + "-" +
         std::to_string(world);
}

}  // namespace

Outcome RunSocketWorkload(const SocketWorkloadSpec& spec,
                          const RunOptions& options) {
  Outcome out;
  Measured m;
  // Each world -- the coordinator and the site processes it forks -- runs
  // on one CPU. Spread over four vCPUs of a shared VM, every step waits on
  // cross-CPU wake-ups whose latency follows the neighbours' load: the same
  // drive took 1.2-3.5 s there, against a steady 0.7 s on one CPU. Pinned,
  // the figures measure the step loop's own cost. Successive worlds take
  // the allowed CPUs in turn (see CpuRotation).
  const std::vector<int> cpus = AllowedCpus();
  Repeats repeats(options, spec.max_drives);
  dgc::workload::ScaleTopologyPlan plan;
  std::unique_ptr<LedgerWorld> world;
  std::unique_ptr<dgc::SocketGodWorld> god;
  std::unique_ptr<OwnedSocketWorld> owned;
  int worlds = 0;
  const auto setup = [&] {
    world.reset();
    god.reset();
    owned.reset();
    PinTo(0, cpus[static_cast<std::size_t>(worlds) % cpus.size()]);
    const std::uint64_t start = NowNs();
    {
      const Scope span(SpanName::kSetupSpawn);
      owned = std::make_unique<OwnedSocketWorld>(
          spec, StateDir(options, worlds++), /*snapshot_each_step=*/false);
    }
    {
      const Scope span(SpanName::kSetupPlan);
      plan = dgc::workload::BuildScaleTopology(spec.heap);
    }
    dgc::SocketWorld& sw = *owned->world;
    god = std::make_unique<dgc::SocketGodWorld>(sw);
    world = std::make_unique<LedgerWorld>(
        *god,
        LedgerWorld::Census{[&sw] { return sw.transport().now(); },
                            [&sw] { return sw.SurvivingObjects(); }},
        /*traced=*/true);
    {
      const Scope span(SpanName::kSetupInstantiate);
      BuildHeap(*world, plan);
      world->Settle();
    }
    repeats.SetUp(m, Seconds(NowNs() - start));
  };

  dgc::ScriptedChurnResult script;
  Counters socket;
  while (repeats.DriveAgain(m)) {
    while (repeats.SetUpAgain(m)) setup();
    setup();
    dgc::SocketWorld& sw = *owned->world;
    sw.transport().network().ResetStats();
    Counters before;
    before.socket = sw.transport().socket_counters();
    const std::uint64_t start = NowNs();
    script = dgc::RunScriptedChurn(*world, spec.churn_seed, spec.churn);
    const double run_s = Seconds(NowNs() - start);

    socket = Counters{};
    socket.net = sw.transport().network().stats();
    socket.socket = sw.transport().socket_counters();
    for (SiteId s = 0; s < spec.sites; ++s) {
      dgc::wire::QueryReplyFrame reply;
      if (sw.QuerySite(s, reply)) {
        socket.bt.traces_started += reply.traces_started;
        socket.bt.traces_completed_garbage += reply.traces_garbage;
        socket.bt.traces_completed_live += reply.traces_live;
      }
    }
    socket = Delta(socket, before);
    m.messages = socket.net.inter_site_sent;
    m.steps = socket.socket.step_requests;
    repeats.Drove(m, run_s, world->round_ms(), Snapshot(world->ledger()), out);
  }
  dgc::SocketWorld& sw = *owned->world;
  m.peak_rss_mb = PeakRssMb("self");
  for (SiteId s = 0; s < spec.sites; ++s) {
    m.peak_rss_mb += PeakRssMb(std::to_string(sw.supervisor().status(s).pid));
  }

  // Untimed epilogue: drain and census the last socket world, then replay
  // the same script on a sim System — traced in a traced run, where it
  // supplies the per-layer split of the layers that run inside the site
  // processes.
  Tracer::Get().Enable(false);
  for (std::size_t i = 0; i < spec.drain_rounds; ++i) world->RunRound();
  const std::vector<bool> fates = Fates(script, sw.SurvivingObjects());
  out.attempted = world->ledger().severed();
  out.failed = world->ledger().backlog();
  const std::uint64_t reclaimed = sw.TotalObjectsReclaimed();
  const std::uint64_t objects_left = sw.TotalObjects();
  world.reset();
  god.reset();
  owned.reset();

  Tracer::Get().Enable(options.trace);
  Counters sim_layers;
  const Replay replay = ReplayOnSim(spec, plan, sim_layers);
  Tracer::Get().Enable(false);
  if (options.trace) {
    const SnapshotProbe probe =
        ProbeSnapshots(spec, plan, StateDir(options, worlds++));
    m.snapshot_step_ratio =
        Ratio(probe.step_ms,
              Ratio(Median(m.run_s) * 1e3, static_cast<double>(m.steps)));
    socket.snapshot_bytes = probe.bytes;
  }
  if (replay.fates != fates) {
    out.violations.push_back("socket census differs from the sim replay");
  }
  if (replay.reclaimed != reclaimed || replay.objects_left != objects_left) {
    out.violations.push_back("socket object counts differ from the sim replay");
  }
  if (!(replay.clock == m.clock)) {
    out.violations.push_back(
        "socket simulated-clock outcome differs from the sim replay");
  }

  // Counts the coordinator sees come from the socket world; the counts of
  // the layers inside the site processes from the replay.
  m.layers = sim_layers;
  m.layers.net = socket.net;
  m.layers.bt.traces_started = socket.bt.traces_started;
  m.layers.bt.traces_completed_garbage = socket.bt.traces_completed_garbage;
  m.layers.bt.traces_completed_live = socket.bt.traces_completed_live;
  m.layers.socket = socket.socket;
  m.layers.snapshot_bytes = socket.snapshot_bytes;

  out.end_to_end = EndToEnd(m);
  out.per_layer = PerLayer(m, out, {SpanName::kSocketBuildOp},
                           {SpanName::kSocketBuildOp, SpanName::kRound,
                            SpanName::kSettle, SpanName::kHarvest});
  return out;
}

}  // namespace perfbench
