#include "context.h"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <ostream>
#include <string_view>

#include "obs/json.h"
#include "obs/prof/perf_counters.h"

namespace perfbench {

namespace {

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  return 1;
}

MachineContext probe_context(const std::string& source_id) {
  MachineContext context;
  context.nproc = online_cpus();
  context.cpu_model = cpu_model_name();
  context.compiler = PERFBENCH_COMPILER;
  context.build_type = PERFBENCH_BUILD_TYPE;
  context.source_id = source_id.empty() ? "unknown" : source_id;
  byzrename::obs::prof::PerfCounters counters;
  counters.open();
  context.perf_event_open = counters.available();
  return context;
}

void write_context_json(std::ostream& os, const MachineContext& context) {
  byzrename::obs::JsonWriter json(os);
  json.begin_object()
      .field("nproc", static_cast<std::int64_t>(context.nproc))
      .field("cpu_model", context.cpu_model)
      .field("compiler", context.compiler)
      .field("build_type", context.build_type)
      .field("source_id", context.source_id)
      .field("perf_event_open", context.perf_event_open)
      .end_object();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

HostTicks host_ticks() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::ifstream in("/proc/stat");
  std::string label;
  HostTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench
