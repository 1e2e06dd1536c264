#ifndef BYZRENAME_OBS_TELEMETRY_H
#define BYZRENAME_OBS_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/types.h"

namespace byzrename::core {
struct ScenarioResult;
}  // namespace byzrename::core

namespace byzrename::obs {

/// Resolved identity of one scenario run, captured at start. Field
/// meanings mirror core::ScenarioConfig after the harness resolved the
/// defaults (faults, iterations, round budget).
struct RunInfo {
  std::string algorithm;
  int n = 0;
  int t = 0;
  int faults = 0;
  std::string adversary;
  std::uint64_t seed = 0;
  int iterations = -1;  ///< resolved voting iterations; -1 = not applicable
  bool validate_votes = true;
  sim::Name target_namespace = 0;
  int round_budget = 0;
  /// Free-form row label propagated from ScenarioConfig::telemetry_label.
  std::string label;
  /// Canonical fault-plan spec (sim::to_spec); empty = clean model.
  std::string fault_plan;
};

/// Everything the telemetry layer measures about one synchronous round:
/// the round's communication counters, its wall clock, the acceptance /
/// rejection counters over correct processes, and (when the run's
/// algorithm exposes them) the core::probe quantities the paper's lemmas
/// bound. Probe fields are guarded by the has_* flags.
struct RoundSample {
  sim::Round round = 0;
  sim::RoundMetrics metrics;  ///< this round only, not cumulative
  double wall_seconds = 0.0;

  /// |accepted| extremes and cumulative rejected votes/echoes over
  /// correct Alg. 1 / Alg. 4 processes.
  bool has_acceptance = false;
  std::size_t min_accepted = 0;
  std::size_t max_accepted = 0;
  long rejected_votes = 0;

  /// Alg. 1 rank probes: Delta_r (Lemmas IV.7-9) and the adjacent-rank
  /// gap (Corollary IV.6). Exact rationals carried as strings so no
  /// precision is lost in the report; doubles for plotting.
  bool has_rank_probes = false;
  std::string rank_spread_exact;
  double rank_spread = 0.0;
  std::string adjacent_gap_exact;
  double adjacent_gap = 0.0;

  /// Alg. 4 name probes (Lemmas VI.1 / VI.2), meaningful from round 2.
  bool has_fast_probes = false;
  sim::Name fast_max_discrepancy = 0;
  sim::Name fast_min_gap = 0;
};

/// A finished run as handed to sinks: the full harness result plus the
/// whole-run wall clock measured by the telemetry layer.
struct RunSummary {
  const core::ScenarioResult& result;
  double wall_seconds = 0.0;
};

/// Consumer interface. Sinks are non-owning and must outlive the
/// Telemetry they are attached to. All hooks have empty defaults so a
/// sink overrides only what it consumes.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_run_start(const RunInfo& info) { (void)info; }
  virtual void on_round(const RoundSample& sample) { (void)sample; }
  virtual void on_run_end(const RunSummary& summary) { (void)summary; }
};

/// The hub the harness drives. Pay-for-what-you-use: with no sinks
/// attached, active() is false and the harness skips sampling entirely —
/// a run without telemetry costs exactly what it did before this layer
/// existed.
class Telemetry {
 public:
  /// Attaches a non-owning sink; call order is delivery order.
  void add_sink(TelemetrySink& sink) { sinks_.push_back(&sink); }

  [[nodiscard]] bool active() const noexcept { return !sinks_.empty(); }

  /// Per-round probe sampling (exact-rational rank measurements) can be
  /// switched off for huge sweeps; counters and timers always run.
  void set_probes_enabled(bool enabled) noexcept { probes_ = enabled; }

  // --- Harness-facing API ------------------------------------------------

  void begin_run(RunInfo info);

  /// Samples the network after a round's receive phase; the harness
  /// calls it from the runner's observer slot, after ScenarioConfig's
  /// own observer.
  void sample_round(sim::Round round, const sim::Network& network);

  void end_run(const core::ScenarioResult& result);

 private:
  std::vector<TelemetrySink*> sinks_;
  bool probes_ = true;
  std::chrono::steady_clock::time_point run_start_{};
  std::chrono::steady_clock::time_point last_round_{};
};

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_TELEMETRY_H
