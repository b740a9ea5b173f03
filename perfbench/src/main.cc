// perfbench: runs one benchmark workload and prints its figures.
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--spans-out FILE]
//
// The last line of standard output is one JSON object: correct, attempted
// (cycles severed), failed (still present after the quiesce epilogue) and
// metrics — the end-to-end figures, or with --trace 1 the per-layer split.
// Oracle or differential violations go to standard error and make the exit
// code 1. run.py builds this binary and is the command BENCHMARK.json names.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "scale_openloop|cycle_storm|socket_churn --seed N "
               "[--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--spans-out FILE]\n",
               why);
  return 2;
}

/// Shortest text that reads back as the same double.
std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

void PrintResult(const Outcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const auto& metrics = trace ? out.per_layer : out.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds < 0) {
        return Usage("--seconds takes a non-negative number");
      }
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  perfbench::Tracer::Get().Enable(options.trace);
  Outcome out;
  if (workload == "scale_openloop") {
    out = perfbench::RunSimWorkload(perfbench::ScaleOpenLoopSpec(options.seed),
                                    options);
  } else if (workload == "cycle_storm") {
    out = perfbench::RunSimWorkload(perfbench::CycleStormSpec(options.seed),
                                    options);
  } else if (workload == "socket_churn") {
    out = perfbench::RunSocketWorkload(
        perfbench::SocketChurnSpec(options.seed), options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  if (!spans_out.empty() && !perfbench::Tracer::Get().WriteCsv(spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "perfbench: violation: %s\n", v.c_str());
  }
  PrintResult(out, options.trace);
  return out.violations.empty() ? 0 : 1;
}
