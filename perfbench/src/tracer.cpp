#include "tracer.h"

#include <cstring>
#include <ostream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/prof/alloc_profiler.h"

namespace perfbench {

namespace {

std::uint64_t thread_allocs() noexcept {
  return byzrename::obs::prof::AllocProfiler::thread_counts().count;
}

}  // namespace

const char* row_metric(Row row) noexcept {
  switch (row) {
    case Row::kUnattributed: return "unattributed_s";
    case Row::kCoreSetup: return "core.setup_s";
    case Row::kCoreSelection: return "core.selection_s";
    case Row::kCoreEcho: return "core.echo_s";
    case Row::kCoreReady: return "core.ready_s";
    case Row::kCoreVoting: return "core.voting_s";
    case Row::kCoreDecision: return "core.decision_s";
    case Row::kCoreCheck: return "core.check_s";
    case Row::kAdversarySend: return "adversary.send_s";
    case Row::kAdversaryReceive: return "adversary.receive_s";
    case Row::kAdversaryForge: return "adversary.forge_s";
    case Row::kSim: return "sim.round_self_s";
    case Row::kObs: return "obs.telemetry_s";
    case Row::kExp: return "exp.wall_s";
    case Row::kSvc: return "svc.http_s";
    case Row::kExcluded:
    case Row::kCount: break;
  }
  return "";
}

const char* row_alloc_layer(Row row) noexcept {
  switch (row) {
    case Row::kCoreSetup:
    case Row::kCoreSelection:
    case Row::kCoreEcho:
    case Row::kCoreReady:
    case Row::kCoreVoting:
    case Row::kCoreDecision:
    case Row::kCoreCheck: return "core";
    case Row::kAdversarySend:
    case Row::kAdversaryReceive:
    case Row::kAdversaryForge: return "adversary";
    case Row::kSim: return "sim";
    case Row::kObs: return "obs";
    default: return nullptr;
  }
}

double LayerTable::traced_wall() const {
  double total = 0.0;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    if (static_cast<Row>(i) != Row::kExcluded) total += seconds[i];
  }
  return total;
}

std::uint64_t LayerTable::layer_allocs(const char* layer) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    const char* owner = row_alloc_layer(static_cast<Row>(i));
    if (owner != nullptr && std::strcmp(owner, layer) == 0) total += allocs[i];
  }
  return total;
}

LayerTable& LayerTable::operator+=(const LayerTable& other) {
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    seconds[i] += other.seconds[i];
    allocs[i] += other.allocs[i];
  }
  return *this;
}

int Tracer::open(const char* name, Row row) {
  Span span;
  span.name = name;
  span.row = row;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  // Take the allocation count and the clock last, after this span's own
  // bookkeeping allocated, so the recorder's growth is not charged to it.
  alloc_open_.push_back(0);
  alloc_open_.back() = thread_allocs();
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  const std::uint64_t allocs = thread_allocs();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("perfbench tracer: spans closed out of order");
  }
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  span.allocs = allocs - alloc_open_.back();
  stack_.pop_back();
  alloc_open_.pop_back();
}

LayerTable Tracer::table() const {
  if (!stack_.empty()) throw std::logic_error("perfbench tracer: table of open spans");
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    child_ns[parent] += span.end_ns - span.start_ns;
    child_allocs[parent] += span.allocs;
  }
  LayerTable table;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto row = static_cast<std::size_t>(span.row);
    table.seconds[row] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
    table.allocs[row] += span.allocs - child_allocs[i];
  }
  return table;
}

void Tracer::clear() {
  spans_.clear();
  stack_.clear();
  alloc_open_.clear();
}

void Tracer::write_jsonl(std::ostream& os) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    byzrename::obs::JsonWriter json(os);
    const char* metric = row_metric(span.row);
    json.begin_object()
        .field("name", span.name)
        .field("row", *metric != '\0' ? metric : "excluded")
        .field("parent", static_cast<long long>(span.parent))
        .field("run", static_cast<unsigned long long>(span.run))
        .field("start_ns", static_cast<long long>(span.start_ns - origin))
        .field("end_ns", static_cast<long long>(span.end_ns - origin))
        .field("allocs", static_cast<unsigned long long>(span.allocs))
        .end_object();
    os << '\n';
  }
}

}  // namespace perfbench
