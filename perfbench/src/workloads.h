#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "traced_assembly.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimal inputs for the self-test: same code paths, tiny systems.
  bool small = false;
  /// Self-test: corrupt one verdict after it was received, before the
  /// oracle sees it.
  bool corrupt_verdict = false;
  Misassembly misassembly = Misassembly::kNone;
};

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

struct Measurement {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// in BENCHMARK.json order.
  std::vector<Metric> metrics;
  /// The end-to-end metrics under their workload-specific names
  /// (run_s_p50, instances_per_s, ...), with n/a rows left out.
  std::vector<Metric> report;
  /// Traced run: spans of the first traced pass, one JSON line each.
  std::string spans_jsonl;
  /// Why correct is false, or why the traced run failed.
  std::string problem;
  /// Traced run only: the equivalence guard tripped.
  bool equivalence_failed = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload, untraced or traced, and checks its outputs.
[[nodiscard]] Measurement run_workload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
