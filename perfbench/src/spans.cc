#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSetupPlan: return "setup.plan";
    case SpanName::kSetupInstantiate: return "setup.instantiate";
    case SpanName::kSetupNewObjects: return "setup.new_objects";
    case SpanName::kSetupRoots: return "setup.roots";
    case SpanName::kSetupWires: return "setup.wires";
    case SpanName::kSetupSpawn: return "setup.spawn";
    case SpanName::kNewObject: return "store.new_object";
    case SpanName::kSetRoot: return "store.set_root";
    case SpanName::kWire: return "refs.wire";
    case SpanName::kUnwire: return "refs.unwire";
    case SpanName::kRunUntil: return "sim.run_until";
    case SpanName::kCompute: return "localgc.compute";
    case SpanName::kApply: return "core.apply";
    case SpanName::kHarvest: return "workload.harvest";
    case SpanName::kSocketBuildOp: return "socket.build_op";
    case SpanName::kRound: return "socket.round";
    case SpanName::kSettle: return "socket.settle";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::Begin(SpanName name) {
  if (spans_.empty()) origin_ns_ = NowNs();
  Span span;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.name = name;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is charged to the parent.
  spans_[id].start_ns = NowNs() - origin_ns_;
  return id;
}

void Tracer::End(std::uint32_t id) {
  const std::uint64_t end = NowNs() - origin_ns_;
  Span& span = spans_[id];
  span.dur_ns = end - span.start_ns;
  open_.pop_back();
  SpanTotals& totals = totals_[static_cast<std::size_t>(span.name)];
  if (span.parent >= 0) {
    spans_[span.parent].child_ns += span.dur_ns;
  } else {
    totals.top_level_ns += span.dur_ns;
  }
  ++totals.calls;
  totals.total_ns += span.dur_ns;
  totals.self_ns += span.dur_ns - span.child_ns;
  totals.durations_ns.push_back(span.dur_ns);
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,name,start_ns,dur_ns,self_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu,%lld,%s,%llu,%llu,%llu\n", i,
                 static_cast<long long>(s.parent), SpanNameString(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.dur_ns),
                 static_cast<unsigned long long>(s.dur_ns - s.child_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
