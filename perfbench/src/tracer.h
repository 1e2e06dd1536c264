#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// The rows of the layer table. A span's self time (its duration minus
/// the part its child spans cover) is charged to its row, so the rows
/// of one traced pass always sum to the pass's traced wall time.
enum class Row : std::uint8_t {
  kUnattributed,      ///< pass roots and execution frames: glue between layers
  kCoreSetup,         ///< assembling ids, behaviours and the network
  kCoreSelection,     ///< correct on_send/on_receive, by core::round_phase
  kCoreEcho,
  kCoreReady,
  kCoreVoting,
  kCoreDecision,
  kCoreCheck,         ///< core::check_renaming
  kAdversarySend,     ///< Byzantine on_send
  kAdversaryReceive,  ///< Byzantine on_receive
  kAdversaryForge,    ///< sim::ForgerySource::forge
  kSim,               ///< Network::run_round minus the behaviour calls inside it
  kObs,               ///< telemetry sinks
  kExp,               ///< exp::run_campaign wall time
  kSvc,               ///< loopback HTTP round trips to the daemon
  kExcluded,          ///< untraced remainder of a twin execution; not in the table
  kCount,
};

/// Metric name of each table row ("core.voting_s"); empty for kExcluded.
[[nodiscard]] const char* row_metric(Row row) noexcept;

/// Layer a row's allocations are charged to: "core", "adversary",
/// "sim", "obs", or nullptr for rows without an allocation metric.
[[nodiscard]] const char* row_alloc_layer(Row row) noexcept;

/// One recorded call across a layer boundary.
struct Span {
  const char* name = "";
  Row row = Row::kUnattributed;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint32_t run = 0;     ///< traced pass the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< heap allocations inside the span, children included
};

/// Per-row totals of self time and self allocations.
struct LayerTable {
  std::array<double, static_cast<std::size_t>(Row::kCount)> seconds{};
  std::array<std::uint64_t, static_cast<std::size_t>(Row::kCount)> allocs{};

  [[nodiscard]] double at(Row row) const { return seconds[static_cast<std::size_t>(row)]; }
  /// Sum over every row except kExcluded: the traced wall time.
  [[nodiscard]] double traced_wall() const;
  [[nodiscard]] std::uint64_t layer_allocs(const char* layer) const;
  LayerTable& operator+=(const LayerTable& other);
};

/// Single-threaded span recorder. Spans stay in memory; the caller
/// folds them into a LayerTable and writes them out when the run ends.
/// Every entry point is a no-op through a null Tracer*, so the same
/// workload code serves the traced and the untraced run.
class Tracer {
 public:
  [[nodiscard]] int open(const char* name, Row row);
  void close(int index);

  void set_run(std::uint32_t run) noexcept { run_ = run; }
  [[nodiscard]] LayerTable table() const;
  void clear();

  /// One JSON object per span: name, row, parent, run, start/end (ns
  /// since the first span) and allocation delta.
  void write_jsonl(std::ostream& os) const;

  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::uint64_t> alloc_open_;
  std::uint32_t run_ = 0;
};

/// RAII span; inert when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, Row row)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name, row) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (tracer_ != nullptr && index_ >= 0) tracer_->close(index_);
    index_ = -1;
  }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H
