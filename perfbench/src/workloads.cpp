#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "context.h"
#include "core/algorithm.h"
#include "core/checker.h"
#include "exp/campaign.h"
#include "exp/campaign_io.h"
#include "exp/repro.h"
#include "exp/spec_parse.h"
#include "http_client.h"
#include "obs/complexity_audit.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/prof/alloc_profiler.h"
#include "obs/schema.h"
#include "obs/telemetry.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "svc/api.h"
#include "svc/daemon.h"

namespace perfbench {

namespace bz = byzrename;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and reported as a median,
/// so one cold start cannot swing setup_s.
constexpr int kSetupRepeats = 11;

/// campaign/1 digest of the full faulted grid at --seed 1. The cells
/// are deterministic at any thread count, so any change here is a
/// change in campaign output.
constexpr std::uint64_t kPinnedCampaignDigest = 0xbb17800cda3e6a04ull;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t process_allocs() {
  return bz::obs::prof::AllocProfiler::process_counts().count;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of unsorted @p values.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The highest percentile (at most p99, at least the median) that
/// leaves ten samples above it.
double tail_quantile(std::size_t samples) {
  if (samples == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.5, 0.99);
}

/// Totals of one timed window, measured with tracing off.
struct Window {
  std::vector<double> latencies;  ///< seconds, one per user-visible request
  std::uint64_t ops = 0;          ///< runs or instances completed
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t allocs = 0;
  double peak_rss = 0.0;  ///< MB, read when the window ends
  double host_steal_share = 0.0;  ///< of all host CPU time during the window
  /// Operations per second of each slice, when the window is sliced;
  /// ops_per_s is then their median.
  std::vector<double> slice_rates;
};

/// Brackets a timed window: wall clock, process CPU and allocations,
/// less whatever runs under exclude().
class WindowMeter {
 public:
  WindowMeter()
      : start_(Clock::now()),
        cpu_(process_cpu_seconds()),
        allocs_(process_allocs()),
        host_(host_ticks()) {}

  /// Runs an output oracle inside the window without charging it to the
  /// window. Only call it while no measured work runs on other threads.
  template <class Oracle>
  void exclude(Oracle&& oracle) {
    const auto start = Clock::now();
    const double cpu = process_cpu_seconds();
    const std::uint64_t allocs = process_allocs();
    oracle();
    excluded_wall_ += since(start);
    excluded_cpu_ += process_cpu_seconds() - cpu;
    excluded_allocs_ += process_allocs() - allocs;
  }

  void finish(Window& window) const {
    window.wall = since(start_) - excluded_wall_;
    window.cpu = process_cpu_seconds() - cpu_ - excluded_cpu_;
    window.allocs = process_allocs() - allocs_ - excluded_allocs_;
    window.peak_rss = peak_rss_mb();
    const HostTicks host = host_ticks();
    const std::uint64_t total = host.total - host_.total;
    window.host_steal_share =
        total == 0 ? 0.0 : static_cast<double>(host.steal - host_.steal) / static_cast<double>(total);
  }

 private:
  Clock::time_point start_;
  double cpu_;
  std::uint64_t allocs_;
  HostTicks host_;
  double excluded_wall_ = 0.0;
  double excluded_cpu_ = 0.0;
  std::uint64_t excluded_allocs_ = 0;
};

double ops_per_s(const Window& w) {
  return w.slice_rates.empty() ? static_cast<double>(w.ops) / w.wall : median(w.slice_rates);
}

void add_end_to_end(Measurement& m, const Window& w, const std::vector<double>& setups) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(w.ops, 1));
  const double rss = w.peak_rss;
  m.metrics = {
      {"latency_p50_ms", percentile(w.latencies, 0.5) * 1e3, "ms"},
      {"ops_per_s", ops_per_s(w), "1/s"},
      {"cpu_s_per_op", w.cpu / ops, "s"},
      {"allocs_per_op", static_cast<double>(w.allocs) / ops, "count"},
      {"peak_rss_mb", rss, "MB"},
      {"setup_s", median(setups), "s"},
  };
  // The tail is reported, not gated: on a shared host it spread about
  // 0.3 run to run for svc_mixed, beyond the largest bound (LAYERS.md).
  m.report = {
      {"latency_tail_ms", percentile(w.latencies, tail_quantile(w.latencies.size())) * 1e3,
       "ms"},
      {"samples", static_cast<double>(w.latencies.size()), "count"},
      {"tail_percentile", tail_quantile(w.latencies.size()) * 100.0, "%"},
      {"cpu_s_per_op", w.cpu / ops, "s"},
      {"allocs_per_op", static_cast<double>(w.allocs) / ops, "count"},
      {"peak_rss_mb", rss, "MB"},
      {"setup_s", median(setups), "s"},
      // Shared-host noise: CPU time the hypervisor gave to other guests.
      {"host_steal_share", w.host_steal_share, "share"},
      {"failed_share",
       m.attempted == 0 ? 0.0
                        : static_cast<double>(m.failed) / static_cast<double>(m.attempted),
       "share"},
  };
}

/// Per-layer metrics of a traced run, averaged per traced pass.
struct LayerTotals {
  LayerTable table;
  double untraced_wall = 0.0;
  double busy = 0.0;
  double idle = 0.0;
  double steals = 0.0;
  bz::sim::RoundMetrics counts;  ///< summed over the traced executions
  double submit_ms = 0.0;
  double exec_ms = 0.0;
  double queue_wait_ms = 0.0;
  double poll_delay_ms = 0.0;
  double rejections = 0.0;
  int passes = 0;
};

void add_counts(bz::sim::RoundMetrics& into, const bz::sim::Metrics& metrics) {
  for (const bz::sim::RoundMetrics& round : metrics.per_round()) {
    into.messages += round.messages;
    into.bits += round.bits;
    into.equivocating_sends += round.equivocating_sends;
    into.injected_drops += round.injected_drops;
    into.injected_delays += round.injected_delays;
    into.injected_forgeries += round.injected_forgeries;
  }
}

void add_per_layer(Measurement& m, const LayerTotals& t) {
  const double passes = std::max(t.passes, 1);
  const auto row = [&](Row r) { return t.table.at(r) / passes; };
  const auto allocs = [&](const char* layer) {
    return static_cast<double>(t.table.layer_allocs(layer)) / passes;
  };
  const double traced = t.table.traced_wall() / passes;
  const double untraced = t.untraced_wall / passes;
  m.metrics.clear();
  for (std::size_t i = 0; i < static_cast<std::size_t>(Row::kExcluded); ++i) {
    const auto r = static_cast<Row>(i);
    m.metrics.push_back({row_metric(r), row(r), "s"});
  }
  m.metrics.insert(
      m.metrics.end(),
      {
          {"traced_wall_s", traced, "s"},
          {"untraced_wall_s", untraced, "s"},
          {"tracing_overhead_s", traced - untraced, "s"},
          {"core.allocs", allocs("core"), "count"},
          {"adversary.allocs", allocs("adversary"), "count"},
          {"sim.allocs", allocs("sim"), "count"},
          {"obs.telemetry_allocs", allocs("obs"), "count"},
          {"adversary.equivocating_sends",
           static_cast<double>(t.counts.equivocating_sends) / passes, "count"},
          {"sim.messages", static_cast<double>(t.counts.messages) / passes, "count"},
          {"sim.bits", static_cast<double>(t.counts.bits) / passes, "count"},
          {"sim.injected_drops", static_cast<double>(t.counts.injected_drops) / passes, "count"},
          {"sim.injected_delays", static_cast<double>(t.counts.injected_delays) / passes,
           "count"},
          {"sim.injected_forgeries", static_cast<double>(t.counts.injected_forgeries) / passes,
           "count"},
          {"exp.busy_s", t.busy / passes, "s"},
          {"exp.idle_s", t.idle / passes, "s"},
          {"exp.steals", t.steals / passes, "count"},
          {"svc.submit_ms", t.submit_ms, "ms"},
          {"svc.exec_ms", t.exec_ms, "ms"},
          {"svc.queue_wait_ms", t.queue_wait_ms, "ms"},
          {"svc.poll_delay_ms", t.poll_delay_ms, "ms"},
          {"svc.admission_rejections", t.rejections / passes, "count"},
      });
}

/// Folds one finished traced pass into the totals; keeps the first
/// pass's spans for the span file.
void fold_pass(Measurement& m, LayerTotals& totals, Tracer& tracer) {
  totals.table += tracer.table();
  if (totals.passes == 0) {
    std::ostringstream spans;
    tracer.write_jsonl(spans);
    m.spans_jsonl += spans.str();
  }
  tracer.clear();
}

/// Digest of everything the equivalence guard compares, plus the
/// checker verdict: the determinism oracle of one scenario run.
std::uint64_t result_digest(const bz::core::ScenarioResult& result) {
  std::ostringstream os;
  os << result.run.rounds << ' ' << result.run.terminated << '|';
  for (const auto& decision : result.run.decisions) os << (decision ? *decision : -1) << ',';
  os << '|';
  for (const auto round : result.run.decide_rounds) os << round << ',';
  for (const bz::sim::RoundMetrics& r : result.run.metrics.per_round()) {
    os << '|' << r.messages << ',' << r.bits << ',' << r.correct_messages << ','
       << r.correct_bits << ',' << r.equivocating_sends << ',' << r.injected_drops << ','
       << r.injected_delays << ',' << r.injected_forgeries << ',' << r.max_message_bits;
  }
  os << '|' << result.report.classes();
  return fnv1a(os.str());
}

// ---------------------------------------------------------------------------
// op_split_n64, op_silent_n128: one core::run_scenario call per operation.

struct ScenarioShape {
  int n = 0;
  int t = 0;
  const char* adversary = "";
  bool telemetry = false;
};

struct ScenarioRun {
  bz::core::ScenarioResult result;
  std::string rows;  ///< with telemetry, the metrics/1 and audit/1 rows
  bool audit_ok = true;
};

/// One timed operation. With telemetry it attaches the sinks
/// `byzrename --metrics-jsonl --audit` attaches and writes their rows to
/// memory.
ScenarioRun run_scenario_once(bz::core::ScenarioConfig config, bool telemetry) {
  ScenarioRun out;
  if (!telemetry) {
    out.result = bz::core::run_scenario(config);
    return out;
  }
  bz::obs::MetricsSink metrics;
  bz::obs::ComplexityAuditor auditor;
  bz::obs::Telemetry hub;
  hub.add_sink(metrics);
  hub.add_sink(auditor);
  config.telemetry = &hub;
  out.result = bz::core::run_scenario(config);
  std::ostringstream rows;
  metrics.write_metrics_jsonl(rows);
  auditor.write_audit_jsonl(rows);
  out.rows = rows.str();
  out.audit_ok = auditor.complete() && auditor.all_ok();
  return out;
}

/// Run outcome plus the telemetry rows: what every run must repeat.
std::uint64_t run_digest(const ScenarioRun& run) {
  return fnv1a(run.rows, result_digest(run.result));
}

/// The oracle of one scenario run, off the timed path: the checker
/// re-run on the decisions, the auditor's verdict, and the digest
/// against the set-up reference.
bool scenario_run_ok(const ScenarioRun& run, std::uint64_t reference_digest) {
  return run_digest(run) == reference_digest && run.audit_ok &&
         bz::core::check_renaming(run.result.named, run.result.target_namespace).all_ok();
}

Measurement scenario_workload(const RunOptions& o, ScenarioShape shape) {
  if (o.small) {
    shape.n = 16;
    shape.t = 5;
  }
  Measurement m;
  const auto make_config = [&] {
    bz::core::ScenarioConfig config;
    config.params = {.n = shape.n, .t = shape.t};
    config.algorithm = bz::core::Algorithm::kOpRenaming;
    config.adversary = shape.adversary;
    config.seed = o.seed;
    return config;
  };

  std::vector<double> setups;
  bz::core::ScenarioConfig config;
  std::uint64_t reference = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    config = make_config();
    const ScenarioRun warm = run_scenario_once(config, shape.telemetry);
    setups.push_back(since(start));
    reference = run_digest(warm);
    if (!scenario_run_ok(warm, reference)) {
      m.correct = false;
      m.problem = "the set-up run failed its checker or auditor";
    }
  }

  if (!o.trace) {
    Window window;
    WindowMeter meter;
    const auto start = Clock::now();
    while (since(start) < o.seconds || window.ops < 3) {
      const auto op = Clock::now();
      const ScenarioRun run = run_scenario_once(config, shape.telemetry);
      window.latencies.push_back(since(op));
      ++window.ops;
      meter.exclude([&] { m.failed += scenario_run_ok(run, reference) ? 0 : 1; });
    }
    meter.finish(window);
    m.attempted = window.ops;
    add_end_to_end(m, window, setups);
    m.report.insert(m.report.begin(), {"run_s_p50", percentile(window.latencies, 0.5), "s"});
    return m;
  }

  LayerTotals totals;
  Tracer tracer;
  const auto start = Clock::now();
  while (since(start) < o.seconds || totals.passes < 2) {
    const auto untraced_start = Clock::now();
    const ScenarioRun reference_run = run_scenario_once(config, shape.telemetry);
    totals.untraced_wall += since(untraced_start);

    tracer.set_run(static_cast<std::uint32_t>(totals.passes));
    bz::core::ScenarioResult decorated;
    std::optional<ScenarioRun> twin;
    {
      Scope pass(&tracer, "pass", Row::kUnattributed);
      decorated = run_decorated(config, tracer, o.misassembly);
      if (shape.telemetry) {
        bz::obs::MetricsSink metrics;
        bz::obs::ComplexityAuditor auditor;
        bz::obs::Telemetry hub;
        hub.add_sink(metrics);
        hub.add_sink(auditor);
        twin.emplace();
        twin->result = run_telemetry_twin(config, hub, tracer);
        Scope write(&tracer, "obs.write_rows", Row::kObs);
        std::ostringstream rows;
        metrics.write_metrics_jsonl(rows);
        auditor.write_audit_jsonl(rows);
        write.close();
        twin->rows = rows.str();
      }
    }
    m.attempted += 1;
    std::string mismatch = equivalence_mismatch(reference_run.result, decorated);
    if (mismatch.empty() && twin && run_digest(*twin) != run_digest(reference_run)) {
      mismatch = "telemetry rows of the traced twin differ";
    }
    if (!mismatch.empty()) {
      m.failed += 1;
      m.correct = false;
      m.equivalence_failed = true;
      m.problem = "equivalence guard: " + mismatch;
      return m;
    }
    add_counts(totals.counts, decorated.run.metrics);
    fold_pass(m, totals, tracer);
    ++totals.passes;
  }
  add_per_layer(m, totals);
  return m;
}

// ---------------------------------------------------------------------------
// campaign_faulted: one exp::run_campaign call over a faulted grid.

constexpr const char* kFaultPlan = "drop:0.02+delay:0.05x1+forge:2=ghost";

std::string campaign_grid(const RunOptions& o) {
  std::string grid = o.small ? "algo=op,fast;n=16;t=3;adversary=split;reps=2;"
                             : "algo=op,fast;n=16,32;t=3,5;adversary=split,idflood,asymflood;"
                               "reps=20;";
  return grid + "fault=" + kFaultPlan + ";seed=" + std::to_string(o.seed);
}

struct CampaignCall {
  bz::exp::CampaignResult result;
  std::string runs_out;
};

CampaignCall call_campaign(const bz::exp::CampaignSpec& spec, bz::exp::CampaignOptions options) {
  CampaignCall call;
  std::ostringstream runs_out;
  options.runs_out = &runs_out;
  call.result = bz::exp::run_campaign(spec, options);
  call.runs_out = runs_out.str();
  return call;
}

std::uint64_t cells_digest(const bz::exp::CampaignSpec& spec,
                           const bz::exp::CampaignResult& result) {
  std::ostringstream cells;
  bz::exp::write_campaign_cells(cells, spec, result);
  return fnv1a(cells.str());
}

/// Runs of one call that failed: threw, timed out or were quarantined.
/// Checker violations under the fault plan are results, not failures.
std::uint64_t failed_runs(const bz::exp::CampaignResult& result) {
  std::uint64_t failed = 0;
  for (const bz::exp::RunRecord& run : result.runs) {
    const bool broken = run.quarantined || !run.executed ||
                        run.failure == bz::exp::FailureKind::kException ||
                        run.failure == bz::exp::FailureKind::kTimeout;
    failed += broken ? 1 : 0;
  }
  return failed;
}

Measurement campaign_workload(const RunOptions& o) {
  Measurement m;
  bz::exp::CampaignSpec spec;
  bz::exp::CampaignOptions options;
  std::vector<double> setups;
  std::uint64_t reference = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    spec = bz::exp::parse_campaign_spec(campaign_grid(o));
    options = {};
    options.threads = online_cpus();
    options.round_stats = true;
    const CampaignCall warm = call_campaign(spec, options);
    reference = cells_digest(spec, warm.result);
    setups.push_back(since(start));
    if (failed_runs(warm.result) != 0 || warm.runs_out.empty()) {
      m.correct = false;
      m.problem = "the set-up campaign had failed runs";
    }
  }
  if (!o.small && o.seed == 1 && reference != kPinnedCampaignDigest) {
    m.correct = false;
    std::ostringstream hex;
    hex << std::hex << reference;
    m.problem = "campaign/1 digest 0x" + hex.str() + " differs from the pinned one";
  }

  // The representative faulted cell for the decorated execution.
  bz::core::ScenarioConfig cell;
  cell.params = o.small ? bz::sim::SystemParams{.n = 16, .t = 3}
                        : bz::sim::SystemParams{.n = 32, .t = 5};
  cell.algorithm = bz::core::Algorithm::kOpRenaming;
  cell.adversary = "split";
  cell.seed = o.seed;
  cell.fault_plan = bz::sim::parse_fault_plan(kFaultPlan);

  if (!o.trace) {
    Window window;
    WindowMeter meter;
    const auto start = Clock::now();
    int calls = 0;
    while (since(start) < o.seconds || calls < 3) {
      const auto op = Clock::now();
      const CampaignCall call = call_campaign(spec, options);
      window.latencies.push_back(since(op));
      ++calls;
      window.ops += call.result.runs.size();
      m.attempted += call.result.runs.size();
      meter.exclude([&] {
        const bool same = cells_digest(spec, call.result) == reference;
        m.failed += same ? failed_runs(call.result) : call.result.runs.size();
      });
    }
    meter.finish(window);
    add_end_to_end(m, window, setups);
    m.report.insert(m.report.begin(),
                    {"runs_per_s", static_cast<double>(window.ops) / window.wall, "1/s"});
    return m;
  }

  LayerTotals totals;
  Tracer tracer;
  const std::size_t run_slots = bz::exp::expand_cells(spec).size() *
                                static_cast<std::size_t>(spec.repetitions);
  const auto start = Clock::now();
  while (since(start) < o.seconds || totals.passes < 2) {
    const auto untraced_start = Clock::now();
    const CampaignCall untraced = call_campaign(spec, options);
    const bz::core::ScenarioResult reference_cell = bz::core::run_scenario(cell);
    totals.untraced_wall += since(untraced_start);

    // Per-run busy time through the campaign's own hooks; each slot is
    // written by exactly one worker.
    std::vector<std::int64_t> begun(run_slots, 0);
    std::vector<std::int64_t> ended(run_slots, 0);
    bz::exp::CampaignOptions hooked = options;
    hooked.configure = [&begun](std::size_t index, bz::core::ScenarioConfig&) {
      if (index < begun.size()) begun[index] = Tracer::now_ns();
    };
    hooked.inspect = [&ended](std::size_t index, const bz::core::ScenarioResult&) {
      if (index < ended.size()) ended[index] = Tracer::now_ns();
    };

    tracer.set_run(static_cast<std::uint32_t>(totals.passes));
    CampaignCall traced;
    bz::core::ScenarioResult decorated;
    bz::core::ScenarioResult twin;
    double campaign_wall = 0.0;
    {
      Scope pass(&tracer, "pass", Row::kUnattributed);
      {
        const auto campaign_start = Clock::now();
        Scope span(&tracer, "exp.run_campaign", Row::kExp);
        traced = call_campaign(spec, hooked);
        campaign_wall = since(campaign_start);
      }
      decorated = run_decorated(cell, tracer, o.misassembly);
      // The run/1 line run_campaign streams for every run with runs_out,
      // through the same sink and with probes off, timed on a twin.
      std::ostringstream run_lines;
      bz::obs::RunReportSink sink(run_lines);
      bz::obs::Telemetry hub;
      hub.add_sink(sink);
      hub.set_probes_enabled(false);
      twin = run_telemetry_twin(cell, hub, tracer);
    }
    m.attempted += traced.result.runs.size() + untraced.result.runs.size();
    m.failed += failed_runs(traced.result) + failed_runs(untraced.result);
    if (cells_digest(spec, traced.result) != reference) {
      m.correct = false;
      m.problem = "campaign/1 lines of the traced call differ";
    }
    std::string mismatch = equivalence_mismatch(reference_cell, decorated);
    if (mismatch.empty()) mismatch = equivalence_mismatch(reference_cell, twin);
    if (!mismatch.empty()) {
      m.failed += 1;
      m.correct = false;
      m.equivalence_failed = true;
      m.problem = "equivalence guard: " + mismatch;
      return m;
    }
    double busy = 0.0;
    for (std::size_t i = 0; i < run_slots; ++i) {
      if (ended[i] > begun[i]) busy += static_cast<double>(ended[i] - begun[i]) * 1e-9;
    }
    totals.busy += busy;
    totals.idle += static_cast<double>(traced.result.threads) * campaign_wall - busy;
    totals.steals += static_cast<double>(traced.result.steals);
    add_counts(totals.counts, decorated.run.metrics);
    fold_pass(m, totals, tracer);
    ++totals.passes;
  }
  add_per_layer(m, totals);
  return m;
}

// ---------------------------------------------------------------------------
// svc_mixed: closed-loop clients against an in-process daemon over HTTP.

const char* const kTenants[] = {"alpha", "beta", "gamma"};
constexpr std::size_t kTenantCount = 3;
/// Submissions refused by admission are retried this often, 2 ms apart,
/// before their instances count as failed.
constexpr int kAdmissionRetries = 500;
/// Verdicts the daemon keeps per session (`byzrenamed --retention`). The
/// client reads each verdict in the cycle that submitted it; at the
/// default (65536) the retained results grow with instances served, so
/// peak_rss_mb would track run length times throughput. At this cap the
/// retained set is full within the first seconds of the window.
constexpr std::size_t kRetention = 1024;

/// The W4 service mix: op/const/fast x idflood/split/asymflood/orderbreak
/// at N = 10..16, seeds drawn from the workload seed.
std::vector<bz::exp::ReproScenario> service_pool(const RunOptions& o) {
  const std::size_t size = o.small ? 8 : 192;
  std::vector<bz::exp::ReproScenario> pool;
  for (std::size_t i = 0; i < size; ++i) {
    bz::exp::ReproScenario scenario;
    switch (i % 4) {
      case 0:
        scenario.algorithm = bz::core::Algorithm::kOpRenaming;
        scenario.params = {.n = 10, .t = 3};
        scenario.adversary = "idflood";
        break;
      case 1:
        scenario.algorithm = bz::core::Algorithm::kOpRenamingConstantTime;
        scenario.params = {.n = 16, .t = 3};
        scenario.adversary = "split";
        break;
      case 2:
        scenario.algorithm = bz::core::Algorithm::kFastRenaming;
        scenario.params = {.n = 11, .t = 2};
        scenario.adversary = "asymflood";
        break;
      default:
        scenario.algorithm = bz::core::Algorithm::kOpRenaming;
        scenario.params = {.n = 10, .t = 3};
        scenario.adversary = "orderbreak";
        scenario.validate_votes = false;
        break;
    }
    scenario.seed = bz::sim::Rng::derive_stream(o.seed, i);
    pool.push_back(scenario);
  }
  return pool;
}

/// The scenario object exactly as write_repro_scenario serializes it.
std::string scenario_json(const bz::exp::ReproScenario& scenario) {
  std::ostringstream os;
  bz::obs::JsonWriter json(os);
  json.begin_object();
  bz::exp::write_repro_scenario(json, scenario);
  json.end_object();
  const std::string wrapped = os.str();  // {"scenario":{...}}
  const std::size_t colon = wrapped.find(':');
  return wrapped.substr(colon + 1, wrapped.size() - colon - 2);
}

/// Verdict fields of the identity-free verdict document, without its
/// schema prefix and closing brace: the bytes every polled item for the
/// scenario must carry after its id and session.
std::string verdict_fields(const bz::exp::ReproScenario& scenario,
                           const bz::exp::ReproVerdict& verdict) {
  std::ostringstream os;
  bz::svc::write_verdict_document(os, scenario, verdict);
  const std::string document = os.str();
  const std::string prefix = std::string("{\"schema\":\"") + bz::obs::kVerdictSchema + "\",";
  if (document.rfind(prefix, 0) != 0 || document.size() < prefix.size() + 2) {
    throw std::logic_error("perfbench: unexpected verdict document layout");
  }
  return document.substr(prefix.size(), document.size() - prefix.size() - 2);
}

struct ServiceSetup {
  std::unique_ptr<bz::svc::Daemon> daemon;
  std::vector<std::string> scenario_texts;  ///< pool index -> scenario JSON
  /// Scenario seed -> verdict fields from the serial pass, made before
  /// any client runs.
  const std::map<std::uint64_t, std::string>* expected = nullptr;
  int workers = 1;
  /// Instances per tenant per cycle: one per scheduler worker, so each
  /// tenant's batch alone can occupy every worker and the in-flight depth
  /// (tenants x workers) follows the machine, not a chosen constant.
  std::size_t batch = 1;
  /// Poll cursor of each tenant's session.
  std::uint64_t cursors[kTenantCount] = {};
};

/// When the traced run's client received an instance's verdict.
struct Receipt {
  std::uint64_t id = 0;
  std::int64_t received_ns = 0;
};

/// Byte ranges of the objects in the poll response's "items" array. The
/// daemon writes compact JSON, so a brace scan that skips strings finds
/// each item's exact bytes.
std::vector<std::string_view> item_bytes(std::string_view body) {
  std::vector<std::string_view> items;
  const std::size_t open = body.find("\"items\":[");
  if (open == std::string_view::npos) return items;
  int depth = 0;
  bool in_string = false;
  std::size_t begin = 0;
  for (std::size_t i = open + 9; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) begin = i;
    } else if (c == '}') {
      if (--depth == 0) items.push_back(body.substr(begin, i + 1 - begin));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return items;
}

/// What the closed-loop client saw.
struct ClientLog {
  std::vector<double> latencies;  ///< per instance, submit to verdict receipt
  std::vector<Receipt> receipts;  ///< traced run only
  std::uint64_t received = 0;
  std::uint64_t mismatched = 0;  ///< received with other bytes than the serial verdict
  /// Self-test: corrupt the bytes of the next received verdict.
  bool corrupt_next = false;
  double submit_ms = 0.0;  ///< summed POST round trips
  std::uint64_t submits = 0;
  std::uint64_t requests = 0;
  /// Round trips of 40 ms or more: the delayed-ACK stall (LAYERS.md).
  std::uint64_t slow_requests = 0;
  std::uint64_t submitted = 0;
  std::uint64_t refused = 0;  ///< instances whose admission never came
  std::uint64_t rejections = 0;
  std::string error;
};

std::string submit_body(std::size_t tenant, const ServiceSetup& setup, std::size_t cycle) {
  const std::size_t batch = setup.batch;
  std::string body = std::string("{\"schema\":\"") + bz::obs::kSubmitSchema +
                     "\",\"session\":\"" + kTenants[tenant] + "\",\"instances\":[";
  const std::size_t pool = setup.scenario_texts.size();
  for (std::size_t i = 0; i < batch; ++i) {
    if (i != 0) body += ',';
    body += setup.scenario_texts[(tenant + kTenantCount * (cycle * batch + i)) % pool];
  }
  return body + "]}";
}

void count_request(ClientLog& log, double ms) {
  ++log.requests;
  if (ms >= 40.0) ++log.slow_requests;
}

/// POSTs one batch, retrying admission refusals; false when the retry
/// budget ran out.
bool submit_batch(std::uint16_t port, const std::string& body, Tracer* tracer, ClientLog& log) {
  for (int attempt = 0; attempt <= kAdmissionRetries; ++attempt) {
    const auto post = Clock::now();
    Scope span(tracer, "svc.submit", Row::kSvc);
    const HttpResponse response = http_request(port, "POST", "/v1/submit", body);
    span.close();
    const double ms = since(post) * 1e3;
    log.submit_ms += ms;
    ++log.submits;
    count_request(log, ms);
    if (response.status / 100 == 2) return true;
    if (response.status != 429) {
      throw std::runtime_error("submit returned HTTP " + std::to_string(response.status));
    }
    ++log.rejections;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Whether a polled item's bytes are exactly the serial verdict of its
/// scenario under its id and session. A plain byte compare, so the
/// client keeps no per-verdict record and peak_rss_mb does not grow
/// with the instances served.
bool verdict_matches(const ServiceSetup& setup, std::size_t tenant, std::uint64_t id,
                     std::uint64_t seed, std::string_view item) {
  const auto found = setup.expected->find(seed);
  if (found == setup.expected->end()) return false;
  const std::string head = std::string("{\"schema\":\"") + bz::obs::kVerdictSchema +
                           "\",\"id\":" + std::to_string(id) + ",\"session\":\"" +
                           kTenants[tenant] + "\",";
  const std::string_view fields = found->second;
  return item.size() == head.size() + fields.size() + 1 && item.substr(0, head.size()) == head &&
         item.substr(head.size(), fields.size()) == fields && item.back() == '}';
}

/// Long-polls @p tenant's session until one more batch of verdicts is back.
void await_batch(ServiceSetup& setup, std::size_t tenant, Clock::time_point submitted,
                 Tracer* tracer, ClientLog& log) {
  std::uint64_t& cursor = setup.cursors[tenant];
  std::size_t received = 0;
  while (received < setup.batch) {
    const std::string target = std::string("/v1/poll?session=") + kTenants[tenant] +
                               "&cursor=" + std::to_string(cursor) + "&wait_ms=2000";
    const auto poll = Clock::now();
    Scope span(tracer, "svc.poll", Row::kSvc);
    const HttpResponse response = http_request(setup.daemon->port(), "GET", target);
    span.close();
    count_request(log, since(poll) * 1e3);
    const std::int64_t now_ns = Tracer::now_ns();
    const double latency = since(submitted);
    if (response.status != 200) {
      throw std::runtime_error("poll returned HTTP " + std::to_string(response.status));
    }
    const bz::obs::JsonValue doc = bz::obs::parse_json(response.body);
    cursor = doc.at("cursor").as_uint();
    const auto& items = doc.at("items").as_array();
    std::string corrupted;
    std::string_view body = response.body;
    if (log.corrupt_next && !items.empty()) {
      corrupted = response.body;
      const std::size_t at = corrupted.find("\"rounds\":") + 9;
      corrupted[at] = corrupted[at] == '9' ? '8' : static_cast<char>(corrupted[at] + 1);
      body = corrupted;
      log.corrupt_next = false;
    }
    const std::vector<std::string_view> bytes = item_bytes(body);
    if (bytes.size() != items.size()) throw std::runtime_error("poll items do not scan");
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::uint64_t id = items[i].at("id").as_uint();
      log.latencies.push_back(latency);
      if (tracer != nullptr) log.receipts.push_back({id, now_ns});
      if (!verdict_matches(setup, tenant, id, items[i].at("scenario").at("seed").as_uint(),
                           bytes[i])) {
        ++log.mismatched;
      }
    }
    received += items.size();
    log.received += items.size();
  }
}

/// The closed-loop client: each cycle POSTs one batch per tenant, then
/// long-polls every tenant until all of its verdicts are back, and
/// repeats until @p deadline (or for @p cycles cycles when > 0).
/// Appends what it saw to @p log.
void run_client(ServiceSetup& setup, Clock::time_point deadline, int cycles, Tracer* tracer,
                ClientLog& log) {
  Scope client(tracer, "svc.client", Row::kUnattributed);
  try {
    for (std::size_t cycle = 0;; ++cycle) {
      if (cycles > 0 ? static_cast<int>(cycle) >= cycles : Clock::now() >= deadline) break;
      Clock::time_point submitted[kTenantCount];
      bool admitted[kTenantCount] = {};
      for (std::size_t tenant = 0; tenant < kTenantCount; ++tenant) {
        const std::string body = submit_body(tenant, setup, cycle);
        submitted[tenant] = Clock::now();
        admitted[tenant] = submit_batch(setup.daemon->port(), body, tracer, log);
        log.submitted += setup.batch;
        if (!admitted[tenant]) log.refused += setup.batch;
      }
      for (std::size_t tenant = 0; tenant < kTenantCount; ++tenant) {
        if (admitted[tenant]) await_batch(setup, tenant, submitted[tenant], tracer, log);
      }
    }
  } catch (const std::exception& error) {
    log.error = error.what();
  }
}

ServiceSetup start_service(const std::vector<bz::exp::ReproScenario>& pool,
                           const std::map<std::uint64_t, std::string>& expected,
                           bz::svc::SchedulerOptions scheduler) {
  ServiceSetup setup;
  setup.expected = &expected;
  for (const bz::exp::ReproScenario& scenario : pool) {
    setup.scenario_texts.push_back(scenario_json(scenario));
  }
  // The client thread plus the scheduler workers stay within the machine.
  setup.workers = std::max(1, online_cpus() - 1);
  setup.batch = static_cast<std::size_t>(setup.workers);
  bz::svc::DaemonOptions options;
  options.scheduler = std::move(scheduler);
  options.scheduler.threads = setup.workers;
  options.scheduler.retention_cap = kRetention;
  setup.daemon = std::make_unique<bz::svc::Daemon>(options);
  setup.daemon->start();
  for (const char* tenant : kTenants) {
    const std::string body = std::string("{\"schema\":\"") + bz::obs::kSessionSchema +
                             "\",\"tenant\":\"" + tenant + "\"}";
    const HttpResponse response = http_request(setup.daemon->port(), "POST", "/v1/session", body);
    if (response.status / 100 != 2) {
      throw std::runtime_error("session open returned HTTP " + std::to_string(response.status));
    }
  }
  // Warm-up: one closed-loop cycle.
  ClientLog warm;
  run_client(setup, Clock::now(), 1, nullptr, warm);
  if (!warm.error.empty()) throw std::runtime_error("warm-up: " + warm.error);
  return setup;
}

/// Submitted instances that failed: refused by admission, never
/// received, or received with other bytes than the serial verdict.
std::uint64_t failed_instances(const ClientLog& log) {
  const std::uint64_t accounted = log.received + log.refused;
  return log.mismatched + log.refused +
         (log.submitted > accounted ? log.submitted - accounted : 0);
}

Measurement service_workload(const RunOptions& o) {
  Measurement m;
  std::vector<double> setups;
  std::vector<bz::exp::ReproScenario> pool;
  ServiceSetup setup;

  // Completion hook of the traced run: (instance id, completion time,
  // enqueue-to-completion latency).
  struct Completion {
    std::uint64_t id = 0;
    std::int64_t done_ns = 0;
    double latency = 0.0;
    std::uint64_t seed = 0;
  };
  std::mutex completions_mutex;
  std::vector<Completion> completions;
  bz::svc::SchedulerOptions scheduler;
  if (o.trace) {
    scheduler.on_complete = [&](const bz::svc::InstanceResult& result, double latency) {
      const std::lock_guard<std::mutex> lock(completions_mutex);
      completions.push_back({result.id, Tracer::now_ns(), latency, result.scenario.seed});
    };
  }

  // Serial ground truth, made before any client runs and outside every
  // timed span: each pool scenario through exp::evaluate_scenario, one at
  // a time, as `byzrename --verdict-out` produces it. Also yields
  // svc.exec_ms.
  std::map<std::uint64_t, std::string> expected;
  std::map<std::uint64_t, double> exec_seconds;
  for (const bz::exp::ReproScenario& scenario : service_pool(o)) {
    const auto start = Clock::now();
    const bz::exp::ReproVerdict verdict = bz::exp::evaluate_scenario(scenario);
    exec_seconds[scenario.seed] = since(start);
    expected[scenario.seed] = verdict_fields(scenario, verdict);
  }

  const auto set_up = [&] {
    if (setup.daemon) setup.daemon->stop(bz::svc::Scheduler::DrainMode::kCancelQueued);
    const auto start = Clock::now();
    pool = service_pool(o);
    setup = start_service(pool, expected, scheduler);
    setups.push_back(since(start));
  };

  if (!o.trace) {
    // Set-up is repeated spread over the run: each fresh daemon serves
    // an equal slice of the window, so setup_s samples the host over the
    // same span as the window's metrics, not in one instant before it.
    Window window;
    ClientLog log;
    log.corrupt_next = o.corrupt_verdict;
    WindowMeter meter;
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(o.seconds / kSetupRepeats));
    for (int i = 0; i < kSetupRepeats && log.error.empty(); ++i) {
      meter.exclude(set_up);
      const auto slice_start = Clock::now();
      const std::uint64_t received = log.received;
      run_client(setup, slice_start + slice, 0, nullptr, log);
      window.slice_rates.push_back(static_cast<double>(log.received - received) /
                                   since(slice_start));
    }
    meter.finish(window);
    setup.daemon->stop(bz::svc::Scheduler::DrainMode::kCancelQueued);
    if (!log.error.empty()) {
      m.correct = false;
      m.problem = "client: " + log.error;
    }
    window.latencies = log.latencies;
    m.attempted = log.submitted;
    window.ops = window.latencies.size();
    m.failed = failed_instances(log);
    add_end_to_end(m, window, setups);
    m.report.insert(m.report.begin(),
                    {{"instances_per_s", ops_per_s(window), "1/s"},
                     {"latency_p50_ms", percentile(window.latencies, 0.5) * 1e3, "ms"},
                     {"latency_p99_ms", percentile(window.latencies, 0.99) * 1e3, "ms"},
                     {"requests", static_cast<double>(log.requests), "count"},
                     {"requests_over_40ms", static_cast<double>(log.slow_requests), "count"}});
    return m;
  }

  // Traced run: each pass is a fixed number of closed-loop cycles plus
  // the decorated serial execution of the pool, each against its
  // untraced twin.
  const int cycles = o.small ? 2 : 20;
  LayerTotals totals;
  Tracer client_tracer;
  Tracer serial_tracer;
  double submit_ms = 0.0;
  double submits = 0.0;
  double exec_ms = 0.0;
  double queue_wait_ms = 0.0;
  double poll_delay_ms = 0.0;
  double instances = 0.0;
  set_up();
  {
    const std::lock_guard<std::mutex> lock(completions_mutex);
    completions.clear();
  }
  const auto start = Clock::now();
  while (since(start) < o.seconds || totals.passes < 2) {
    // Untraced twin: the same client cycles, then plain run_scenario
    // over the pool (which is also the equivalence reference).
    {
      const auto twin_start = Clock::now();
      ClientLog log;
      run_client(setup, Clock::now(), cycles, nullptr, log);
      totals.untraced_wall += since(twin_start);
      m.attempted += log.submitted;
      m.failed += failed_instances(log);
    }
    std::vector<bz::core::ScenarioResult> references;
    {
      const auto twin_start = Clock::now();
      for (const bz::exp::ReproScenario& scenario : pool) {
        references.push_back(bz::core::run_scenario(scenario.to_config()));
      }
      totals.untraced_wall += since(twin_start);
    }

    client_tracer.set_run(static_cast<std::uint32_t>(totals.passes));
    serial_tracer.set_run(static_cast<std::uint32_t>(totals.passes));
    {
      const std::lock_guard<std::mutex> lock(completions_mutex);
      completions.clear();
    }
    ClientLog log;
    run_client(setup, Clock::now(), cycles, &client_tracer, log);
    {
      Scope pass(&serial_tracer, "pool", Row::kUnattributed);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const bz::core::ScenarioResult decorated =
            run_decorated(pool[i].to_config(), serial_tracer, o.misassembly);
        const std::string mismatch = equivalence_mismatch(references[i], decorated);
        if (!mismatch.empty()) {
          m.correct = false;
          m.equivalence_failed = true;
          m.problem = "equivalence guard: " + mismatch;
          setup.daemon->stop(bz::svc::Scheduler::DrainMode::kCancelQueued);
          return m;
        }
        add_counts(totals.counts, decorated.run.metrics);
      }
    }
    if (!log.error.empty()) {
      m.correct = false;
      m.problem = "client: " + log.error;
    }
    m.attempted += log.submitted;
    m.failed += failed_instances(log);
    totals.rejections += static_cast<double>(log.rejections);
    submit_ms += log.submit_ms;
    submits += static_cast<double>(log.submits);

    std::map<std::uint64_t, std::int64_t> received_at;
    for (const Receipt& receipt : log.receipts) received_at[receipt.id] = receipt.received_ns;
    {
      const std::lock_guard<std::mutex> lock(completions_mutex);
      for (const Completion& done : completions) {
        const auto receipt = received_at.find(done.id);
        const auto exec = exec_seconds.find(done.seed);
        if (receipt == received_at.end() || exec == exec_seconds.end()) continue;
        exec_ms += exec->second * 1e3;
        queue_wait_ms += (done.latency - exec->second) * 1e3;
        poll_delay_ms += static_cast<double>(receipt->second - done.done_ns) * 1e-6;
        instances += 1.0;
      }
    }
    for (Tracer* tracer : {&client_tracer, &serial_tracer}) {
      totals.table += tracer->table();
      if (totals.passes == 0) {
        std::ostringstream spans;
        tracer->write_jsonl(spans);
        m.spans_jsonl += spans.str();
      }
      tracer->clear();
    }
    ++totals.passes;
  }
  setup.daemon->stop(bz::svc::Scheduler::DrainMode::kCancelQueued);
  totals.submit_ms = submits > 0 ? submit_ms / submits : 0.0;
  if (instances > 0) {
    totals.exec_ms = exec_ms / instances;
    totals.queue_wait_ms = queue_wait_ms / instances;
    totals.poll_delay_ms = poll_delay_ms / instances;
  }
  add_per_layer(m, totals);
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"op_split_n64", "op_silent_n128", "svc_mixed",
                                                 "campaign_faulted"};
  return names;
}

Measurement run_workload(const RunOptions& options) {
  if (options.workload == "op_split_n64") {
    return scenario_workload(options, {.n = 64, .t = 21, .adversary = "split", .telemetry = true});
  }
  if (options.workload == "op_silent_n128") {
    return scenario_workload(options,
                             {.n = 128, .t = 42, .adversary = "silent", .telemetry = false});
  }
  if (options.workload == "svc_mixed") return service_workload(options);
  if (options.workload == "campaign_faulted") return campaign_workload(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
