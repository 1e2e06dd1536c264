// perfbench — the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--corrupt-verdict] [--misassemble]
//             [--spans-out FILE] [--source-id ID]
//
// Prints a human table on stderr, then two lines on stdout: a result
// record with the machine context and the workload-specific report, and
// last the result object {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the documented entry point.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "context.h"
#include "obs/json.h"
#include "obs/prof/alloc_interpose.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--small]\n"
               "                 [--corrupt-verdict] [--misassemble] [--spans-out FILE]\n"
               "                 [--source-id ID]\nworkloads:");
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::ostringstream os;
  byzrename::obs::write_json_string(os, text);
  return os.str();
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string spans_out;
  std::string source_id;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = next();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string value = next();
        if (value != "0" && value != "1") usage("--trace expects 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--small") {
        options.small = true;
      } else if (arg == "--corrupt-verdict") {
        options.corrupt_verdict = true;
      } else if (arg == "--misassemble") {
        options.misassembly = Misassembly::kSilentAdversary;
      } else if (arg == "--spans-out") {
        spans_out = next();
      } else if (arg == "--source-id") {
        source_id = next();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == options.workload;
  if (!known) usage("unknown workload " + options.workload);
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  const MachineContext context = probe_context(source_id);
  Measurement m;
  try {
    m = run_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  if (m.equivalence_failed) {
    std::fprintf(stderr, "perfbench: traced run of %s failed: %s\n", options.workload.c_str(),
                 m.problem.c_str());
    return 1;
  }
  if (!spans_out.empty()) {
    std::ofstream spans(spans_out, std::ios::trunc);
    spans << m.spans_jsonl;
    if (!spans) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "%s seed=%" PRIu64 " %s: attempted %" PRIu64 ", failed %" PRIu64 "%s%s\n",
               options.workload.c_str(), options.seed, options.trace ? "traced" : "untraced",
               m.attempted, m.failed, m.problem.empty() ? "" : " — ", m.problem.c_str());
  for (const std::vector<Metric>* table : {&m.metrics, &m.report}) {
    for (const Metric& metric : *table) {
      std::fprintf(stderr, "  %-30s %16.6f %s\n", metric.name.c_str(), metric.value,
                   metric.unit);
    }
    std::fprintf(stderr, "\n");
  }

  std::ostringstream context_json;
  write_context_json(context_json, context);
  std::cout << "{\"schema\": \"perfbench.result/1\", \"workload\": " << quoted(options.workload)
            << ", \"seed\": " << options.seed << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"small\": " << (options.small ? "true" : "false")
            << ", \"context\": " << context_json.str()
            << ", \"problem\": " << quoted(m.problem)
            << ", \"report\": " << metrics_object(m.report) << "}\n";
  std::cout << "{\"correct\": " << (m.correct && m.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failed
            << ", \"metrics\": " << metrics_object(m.metrics) << "}" << std::endl;
  return 0;
}
