#ifndef PERFBENCH_CONTEXT_H
#define PERFBENCH_CONTEXT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace perfbench {

/// The machine and build a result was measured on. Results whose
/// machine fields differ are not comparable (perfbench/compare.py
/// refuses them); the source identity is recorded so an A/B pair can
/// name its two sides.
struct MachineContext {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string source_id;  ///< git sha, or a digest of the source tree
  bool perf_event_open = false;
};

[[nodiscard]] MachineContext probe_context(const std::string& source_id);
void write_context_json(std::ostream& os, const MachineContext& context);

/// Online processors (sched_getaffinity), at least 1.
[[nodiscard]] int online_cpus();

/// Process CPU seconds (user + system, all threads).
[[nodiscard]] double process_cpu_seconds();

/// VmHWM of this process in MiB, 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mb();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal). Zero when /proc
/// is unavailable.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] HostTicks host_ticks();

/// 64-bit FNV-1a, the stable digest every output oracle uses.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_CONTEXT_H
