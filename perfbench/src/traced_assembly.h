#ifndef PERFBENCH_TRACED_ASSEMBLY_H
#define PERFBENCH_TRACED_ASSEMBLY_H

#include <string>

#include "core/harness.h"
#include "obs/telemetry.h"
#include "tracer.h"

namespace perfbench {

/// Deliberate assembly mistakes, for the self-test of the equivalence
/// guard. kNone is the faithful assembly.
enum class Misassembly {
  kNone,
  kSilentAdversary,  ///< wires silent processes instead of the configured strategy
};

/// Runs @p config the way core::run_scenario assembles it — same id
/// split, same behaviours, same adversary environment, same link
/// scrambling, fault injector and forgery source — but built here from
/// the library's public pieces, with every behaviour and the forgery
/// source wrapped in a timing decorator. Each behaviour call, each
/// forge() and each Network::run_round becomes a span in @p tracer.
///
/// Supports what the benchmark's workloads use: op/const/fast, the
/// generated id split, and fault plans without restarts or overshoot.
/// Attachments on the config (telemetry, observer, profiler, event log)
/// are rejected: telemetry is measured by run_telemetry_twin instead,
/// because the sinks introspect the concrete behaviour types that the
/// decorators hide.
[[nodiscard]] byzrename::core::ScenarioResult run_decorated(
    const byzrename::core::ScenarioConfig& config, Tracer& tracer,
    Misassembly misassembly = Misassembly::kNone);

/// The equivalence guard: empty when @p traced reproduces @p reference's
/// decisions, decide rounds, termination, round count, checker verdict
/// and every per-round sim::RoundMetrics field; otherwise the first
/// difference.
[[nodiscard]] std::string equivalence_mismatch(const byzrename::core::ScenarioResult& reference,
                                               const byzrename::core::ScenarioResult& traced);

/// Runs @p config through core::run_scenario with @p telemetry driven
/// from the outside: begin_run, every per-round sample and end_run are
/// obs spans, and the rest of the run is an excluded span (the decorated
/// execution already accounts for it). The sinks see exactly what the
/// harness would hand them, so their output must match an untraced run.
[[nodiscard]] byzrename::core::ScenarioResult run_telemetry_twin(
    const byzrename::core::ScenarioConfig& config, byzrename::obs::Telemetry& telemetry,
    Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_ASSEMBLY_H
