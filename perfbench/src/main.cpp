// perfbench_run -- one workload of the scheduler benchmark per process.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-file <path>]
//
// Prints reference figures as "ref <name> <value> <unit>" lines, then, as
// the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (layers not on the workload's path read 0).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"}, {"decision_p50_us", "us"},
    {"decision_p99_us", "us"},   {"wait_p99_ticks", "ticks"},
    {"cost_over_lb", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"algorithms.decide_us", "us"},
    {"algorithms.window_jobs", "jobs"},
    {"algorithms.suffix_jobs_per_decision", "jobs"},
    {"algorithms.lsrc_ms", "ms"},
    {"algorithms.fcfs_ms", "ms"},
    {"algorithms.conservative_ms", "ms"},
    {"algorithms.easy_ms", "ms"},
    {"sim.upkeep_us", "us"},
    {"sim.loadgen_ns", "ns"},
    {"sim.metrics_ms", "ms"},
    {"core.profile_segments", "count"},
    {"core.index_builds_per_decision", "count"},
    {"core.frames_rewound_per_decision", "count"},
    {"core.compacted_segments", "count"},
    {"core.allocs_per_decision", "count"},
    {"core.validate_ms", "ms"},
    {"generators.instance_ms", "ms"},
    {"bounds.lower_bound_ms", "ms"},
    {"bounds.guarantee_ms", "ms"},
    {"exact.bnb_ms", "ms"},
    {"exact.nodes", "count"},
    {"exact.nodes_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: perfbench_run --workload "
               "svc_easy|svc_cons_churn|batch_reservations|exact_staircase "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--trace-file") {
        args.trace_file = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  try {
    if (args.workload == "svc_easy" || args.workload == "svc_cons_churn") {
      report = perfbench::run_service(args);
    } else if (args.workload == "batch_reservations") {
      report = perfbench::run_batch(args);
    } else if (args.workload == "exact_staircase") {
      report = perfbench::run_exact(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::map<std::string, Metric> by_name;
  for (const Metric& m : report.metrics) by_name[m.name] = m;
  for (const Metric& m : report.reference)
    std::printf("ref %s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());

  std::string metrics;
  auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end() && required) {
      std::cerr << "error: workload did not measure " << spec.name << "\n";
      std::exit(1);
    }
    const double value = it == by_name.end() ? 0.0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               json_number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
