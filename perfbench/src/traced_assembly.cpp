#include "traced_assembly.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/strategies/forgery.h"
#include "core/checker.h"
#include "core/phase.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/runner.h"

namespace perfbench {

namespace bz = byzrename;

namespace {

Row phase_row(bz::core::Phase phase) {
  switch (phase) {
    case bz::core::Phase::kSelection: return Row::kCoreSelection;
    case bz::core::Phase::kEcho: return Row::kCoreEcho;
    case bz::core::Phase::kReady: return Row::kCoreReady;
    case bz::core::Phase::kVoting: return Row::kCoreVoting;
    case bz::core::Phase::kDecision: return Row::kCoreDecision;
    case bz::core::Phase::kProtocol: break;
  }
  throw std::invalid_argument("perfbench: algorithm without a modelled phase structure");
}

/// Forwards every call to the wrapped behaviour inside a span: correct
/// processes charge the core row of the round's phase, Byzantine ones
/// the adversary rows.
class TimedBehavior final : public bz::sim::ProcessBehavior {
 public:
  TimedBehavior(std::unique_ptr<bz::sim::ProcessBehavior> inner, Tracer& tracer, bool byzantine,
                bz::core::Algorithm algorithm, int iterations)
      : inner_(std::move(inner)),
        tracer_(tracer),
        byzantine_(byzantine),
        algorithm_(algorithm),
        iterations_(iterations) {}

  void on_send(bz::sim::Round round, bz::sim::Outbox& out) override {
    Scope span(&tracer_, byzantine_ ? "adversary.on_send" : "core.on_send",
               byzantine_ ? Row::kAdversarySend : row(round));
    inner_->on_send(round, out);
  }

  void on_receive(bz::sim::Round round, const bz::sim::Inbox& inbox) override {
    Scope span(&tracer_, byzantine_ ? "adversary.on_receive" : "core.on_receive",
               byzantine_ ? Row::kAdversaryReceive : row(round));
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::optional<bz::sim::Name> decision() const override {
    return inner_->decision();
  }

 private:
  [[nodiscard]] Row row(bz::sim::Round round) const {
    return phase_row(bz::core::round_phase(algorithm_, round, iterations_).phase);
  }

  std::unique_ptr<bz::sim::ProcessBehavior> inner_;
  Tracer& tracer_;
  bool byzantine_;
  bz::core::Algorithm algorithm_;
  int iterations_;
};

class TimedForgery final : public bz::sim::ForgerySource {
 public:
  TimedForgery(const bz::adversary::AdversaryEnv& env, Tracer& tracer)
      : inner_(env), tracer_(tracer) {}

  [[nodiscard]] bz::sim::PayloadRef forge(bz::sim::Round round,
                                          bz::sim::ProcessIndex spoofed_sender,
                                          bz::sim::ProcessIndex receiver,
                                          const std::string& strategy,
                                          std::uint64_t entropy) override {
    Scope span(&tracer_, "adversary.forge", Row::kAdversaryForge);
    return inner_.forge(round, spoofed_sender, receiver, strategy, entropy);
  }

 private:
  bz::adversary::RegistryForgerySource inner_;
  Tracer& tracer_;
};

/// Brackets each Network::run_round in a sim span; the behaviour and
/// forge spans opened inside it are its children, so the span's self
/// time is delivery, link ordering, bit accounting and fault injection.
class RoundSpans final : public bz::sim::RoundHook {
 public:
  explicit RoundSpans(Tracer& tracer) : tracer_(tracer) {}
  void on_round_begin(bz::sim::Round) override {
    open_ = tracer_.open("sim.run_round", Row::kSim);
  }
  void on_round_end(bz::sim::Round) override { tracer_.close(open_); }

 private:
  Tracer& tracer_;
  int open_ = -1;
};

int resolved_iterations(const bz::core::ScenarioConfig& config) {
  switch (config.algorithm) {
    case bz::core::Algorithm::kOpRenaming:
    case bz::core::Algorithm::kCrashRenaming:
    case bz::core::Algorithm::kTranslatedRenaming:
      return config.options.approximation_iterations >= 0
                 ? config.options.approximation_iterations
                 : bz::core::default_approximation_iterations(config.params.t);
    case bz::core::Algorithm::kOpRenamingConstantTime:
      return bz::core::kConstantTimeIterations;
    default:
      return -1;
  }
}

bool same_round(const bz::sim::RoundMetrics& a, const bz::sim::RoundMetrics& b) {
  return a.messages == b.messages && a.bits == b.bits &&
         a.correct_messages == b.correct_messages && a.correct_bits == b.correct_bits &&
         a.equivocating_sends == b.equivocating_sends && a.injected_drops == b.injected_drops &&
         a.injected_duplicates == b.injected_duplicates &&
         a.injected_delays == b.injected_delays &&
         a.injected_forgeries == b.injected_forgeries &&
         a.injected_restarts == b.injected_restarts &&
         a.max_message_bits == b.max_message_bits &&
         a.max_correct_message_bits == b.max_correct_message_bits;
}

}  // namespace

bz::core::ScenarioResult run_decorated(const bz::core::ScenarioConfig& config, Tracer& tracer,
                                       Misassembly misassembly) {
  using bz::core::Algorithm;
  if (config.algorithm != Algorithm::kOpRenaming &&
      config.algorithm != Algorithm::kOpRenamingConstantTime &&
      config.algorithm != Algorithm::kFastRenaming) {
    throw std::invalid_argument("perfbench: the traced assembly covers op, const and fast");
  }
  if (!config.fault_plan.restarts.empty() || config.fault_plan.fault_overshoot != 0 ||
      !config.correct_ids.empty() || config.telemetry != nullptr || config.observer ||
      config.profiler != nullptr || config.event_log != nullptr) {
    throw std::invalid_argument("perfbench: configuration outside the traced assembly");
  }
  const bz::sim::SystemParams& params = config.params;
  Scope execution(&tracer, "execution", Row::kUnattributed);
  Scope setup(&tracer, "core.setup", Row::kCoreSetup);

  const int faults = config.actual_faults >= 0 ? config.actual_faults : params.t;
  const int correct_count = params.n - faults;
  const std::vector<bz::sim::Id> all = bz::core::generate_ids(params.n, config.seed * 7919 + 17);
  std::vector<bz::sim::Id> correct_ids(all.begin(), all.begin() + correct_count);
  const std::vector<bz::sim::Id> byz_ids(all.begin() + correct_count, all.end());
  std::sort(correct_ids.begin(), correct_ids.end());

  bz::core::RenamingOptions options = config.options;
  const int iterations = resolved_iterations(config);
  if (config.algorithm == Algorithm::kOpRenamingConstantTime) {
    options.approximation_iterations = bz::core::kConstantTimeIterations;
  }

  std::vector<std::unique_ptr<bz::sim::ProcessBehavior>> behaviors;
  behaviors.reserve(static_cast<std::size_t>(params.n));
  for (int i = 0; i < correct_count; ++i) {
    behaviors.push_back(std::make_unique<TimedBehavior>(
        bz::core::make_correct_behavior(config.algorithm, params,
                                        correct_ids[static_cast<std::size_t>(i)], options, i),
        tracer, false, config.algorithm, iterations));
  }

  bz::adversary::AdversaryEnv env;
  env.params = params;
  env.algorithm = config.algorithm;
  env.options = options;
  for (int i = 0; i < correct_count; ++i) {
    env.correct.emplace_back(i, correct_ids[static_cast<std::size_t>(i)]);
  }
  for (int i = correct_count; i < params.n; ++i) env.byz_indices.push_back(i);
  env.byz_ids = byz_ids;
  env.seed = config.seed;

  const std::string strategy =
      misassembly == Misassembly::kSilentAdversary ? "silent" : config.adversary;
  for (auto& faulty : bz::adversary::find_adversary(strategy)(env)) {
    behaviors.push_back(std::make_unique<TimedBehavior>(std::move(faulty), tracer, true,
                                                        config.algorithm, iterations));
  }
  if (static_cast<int>(behaviors.size()) != params.n) {
    throw std::logic_error("perfbench: adversary produced the wrong behaviour count");
  }
  std::vector<bool> byzantine(static_cast<std::size_t>(params.n), false);
  for (int i = correct_count; i < params.n; ++i) byzantine[static_cast<std::size_t>(i)] = true;

  bz::sim::Network network(std::move(behaviors), std::move(byzantine),
                           bz::sim::Rng(config.seed ^ 0x9e3779b97f4a7c15ull), true);
  std::optional<bz::sim::FaultInjector> injector;
  std::optional<TimedForgery> forgery;
  if (!config.fault_plan.empty()) {
    injector.emplace(config.fault_plan, bz::sim::Rng::derive_stream(config.seed, 0xFA017ull));
    network.attach_fault_injector(&*injector);
    if (!config.fault_plan.forges.empty()) {
      forgery.emplace(env, tracer);
      network.attach_forgery_source(&*forgery);
    }
  }

  bz::core::ScenarioResult result;
  result.target_namespace = bz::core::namespace_size(config.algorithm, params);
  const int budget =
      bz::core::expected_steps(config.algorithm, params, options) + config.extra_rounds;
  setup.close();

  RoundSpans round_spans(tracer);
  result.run = bz::sim::run_to_completion(network, budget, {}, &round_spans);

  Scope check(&tracer, "core.check_renaming", Row::kCoreCheck);
  for (int i = 0; i < correct_count; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    result.named.push_back({correct_ids[slot], result.run.decisions[slot],
                            static_cast<bz::sim::ProcessIndex>(i),
                            result.run.decide_rounds[slot], network.was_restarted(i)});
  }
  result.report = bz::core::check_renaming(result.named, result.target_namespace);
  return result;
}

std::string equivalence_mismatch(const bz::core::ScenarioResult& reference,
                                 const bz::core::ScenarioResult& traced) {
  const bz::sim::RunResult& a = reference.run;
  const bz::sim::RunResult& b = traced.run;
  if (a.rounds != b.rounds) return "round count differs";
  if (a.terminated != b.terminated) return "termination differs";
  if (a.decisions != b.decisions) return "decisions differ";
  if (a.decide_rounds != b.decide_rounds) return "decide rounds differ";
  const auto& rounds_a = a.metrics.per_round();
  const auto& rounds_b = b.metrics.per_round();
  if (rounds_a.size() != rounds_b.size()) return "per-round metric count differs";
  for (std::size_t r = 0; r < rounds_a.size(); ++r) {
    if (!same_round(rounds_a[r], rounds_b[r])) {
      return "round " + std::to_string(r + 1) + " metrics differ";
    }
  }
  if (reference.report.all_ok() != traced.report.all_ok() ||
      reference.report.classes() != traced.report.classes()) {
    return "checker verdict differs";
  }
  return {};
}

bz::core::ScenarioResult run_telemetry_twin(const bz::core::ScenarioConfig& config,
                                            bz::obs::Telemetry& telemetry, Tracer& tracer) {
  const bz::sim::SystemParams& params = config.params;
  bz::core::ScenarioConfig twin = config;
  twin.telemetry = nullptr;
  twin.observer = [&telemetry, &tracer](bz::sim::Round round, const bz::sim::Network& network) {
    Scope span(&tracer, "obs.sample_round", Row::kObs);
    telemetry.sample_round(round, network);
  };

  // The RunInfo the harness would build (core/harness.cpp); the sinks'
  // output is compared byte-for-byte against an untraced run, which
  // catches any drift here.
  bz::obs::RunInfo info;
  info.algorithm = std::string(bz::core::to_string(config.algorithm));
  info.n = params.n;
  info.t = params.t;
  info.faults = (config.actual_faults >= 0 ? config.actual_faults : params.t) +
                config.fault_plan.fault_overshoot;
  info.adversary = config.adversary;
  info.seed = config.seed;
  info.iterations = resolved_iterations(config);
  info.validate_votes = config.options.validate_votes;
  info.target_namespace = bz::core::namespace_size(config.algorithm, params);
  bz::core::RenamingOptions options = config.options;
  if (config.algorithm == bz::core::Algorithm::kOpRenamingConstantTime) {
    options.approximation_iterations = bz::core::kConstantTimeIterations;
  }
  info.round_budget =
      bz::core::expected_steps(config.algorithm, params, options) + config.extra_rounds;
  info.label = config.telemetry_label;
  if (!config.fault_plan.empty()) info.fault_plan = bz::sim::to_spec(config.fault_plan);

  {
    Scope span(&tracer, "obs.begin_run", Row::kObs);
    telemetry.begin_run(std::move(info));
  }
  bz::core::ScenarioResult result;
  {
    Scope span(&tracer, "twin.run_scenario", Row::kExcluded);
    result = bz::core::run_scenario(twin);
  }
  {
    Scope span(&tracer, "obs.end_run", Row::kObs);
    telemetry.end_run(result);
  }
  return result;
}

}  // namespace perfbench
