// byzrenamed — multi-tenant renaming-as-a-service daemon.
//
// Long-running loopback HTTP service whose unit of traffic is one
// renaming instance (algorithm, N, t, adversary, faults, seed). Clients
// open sessions (POST /v1/session), submit batches of independent
// instances (POST /v1/submit, schema byzrename.submit/1), and poll
// completion-ordered byzrename.verdict/1 results (GET /v1/poll, with
// optional long-poll). A svc::Scheduler multiplexes every session over
// a fixed pool of worker threads with per-session fair queueing and
// admission control (429 + Retry-After past the configured bounds);
// /metrics exposes per-tenant counter families live. docs/SERVICE.md
// has the full API.
//
// Verdicts are deterministic: the same instance submitted here, run via
// `byzrename --verdict-out`, or replayed from a repro bundle produces
// the same scenario and verdict objects byte-for-byte.
//
// SIGINT/SIGTERM drain: admission stops (503), queued instances report
// status "cancelled", in-flight instances complete and stay pollable
// until the drain grace period ends; then the daemon exits 0. A second
// signal hard-exits 130.

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "svc/daemon.h"

namespace {

using namespace byzrename;

std::atomic<bool> g_interrupted{false};

extern "C" void handle_interrupt(int) {
  if (g_interrupted.exchange(true)) std::_Exit(130);
}

void print_usage() {
  std::cout <<
      "usage: byzrenamed [options]\n"
      "  --port <int>            loopback port to bind (default 8787; 0 = ephemeral,\n"
      "                          printed at startup)\n"
      "  --threads <int>         worker threads, >= 1 (default: hardware concurrency)\n"
      "  --max-queue-depth <n>   queued instances across all sessions (default 4096)\n"
      "  --max-inflight <n>      submitted-but-incomplete instances per session\n"
      "                          (default 1024)\n"
      "  --max-batch <n>         instances per submit request (default 512)\n"
      "  --quantum <n>           fair-queueing quantum: consecutive picks from one\n"
      "                          session before the next is served (default 16)\n"
      "  --retention <n>         completed verdicts retained per session; older ones\n"
      "                          are evicted and their cursors poll 404 cursor-evicted\n"
      "                          (default 65536, 0 = unbounded)\n"
      "  --drain-grace <secs>    after the drain completes, keep serving polls this\n"
      "                          long so clients can collect results (default 2)\n"
      "  --quiet                 suppress status lines (the serving-on line still\n"
      "                          prints: with --port 0 it is the only way to learn\n"
      "                          the bound port)\n"
      "  --help                  this text\n"
      "\n"
      "API schemas and semantics: docs/SERVICE.md\n";
}

struct CliError {
  std::string message;
};

template <typename Number>
Number parse_number(std::string_view flag, std::string_view token) {
  Number value{};
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    throw CliError{std::string(flag) + " expects a number, got '" + std::string(token) + "'"};
  }
  return value;
}

struct Options {
  svc::DaemonOptions daemon;
  int port = 8787;
  double drain_grace_seconds = 2.0;
  bool quiet = false;
};

Options parse(int argc, char** argv) {
  Options options;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw CliError{std::string(argv[i]) + " needs a value"};
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      print_usage();
      std::exit(0);
    } else if (arg == "--port") {
      options.port = parse_number<int>("--port", next_value(i));
      if (options.port < 0 || options.port > 65535) {
        throw CliError{"--port expects a port in [0, 65535]"};
      }
    } else if (arg == "--threads") {
      options.daemon.scheduler.threads = parse_number<int>("--threads", next_value(i));
      if (options.daemon.scheduler.threads < 1) {
        throw CliError{"--threads must be >= 1 (omit the flag for hardware concurrency)"};
      }
    } else if (arg == "--max-queue-depth") {
      options.daemon.scheduler.admission.max_queue_depth =
          parse_number<std::size_t>("--max-queue-depth", next_value(i));
      if (options.daemon.scheduler.admission.max_queue_depth == 0) {
        throw CliError{"--max-queue-depth must be >= 1"};
      }
    } else if (arg == "--max-inflight") {
      options.daemon.scheduler.admission.max_session_inflight =
          parse_number<std::size_t>("--max-inflight", next_value(i));
      if (options.daemon.scheduler.admission.max_session_inflight == 0) {
        throw CliError{"--max-inflight must be >= 1"};
      }
    } else if (arg == "--max-batch") {
      options.daemon.scheduler.admission.max_batch =
          parse_number<std::size_t>("--max-batch", next_value(i));
      if (options.daemon.scheduler.admission.max_batch == 0) {
        throw CliError{"--max-batch must be >= 1"};
      }
    } else if (arg == "--quantum") {
      options.daemon.scheduler.fair_quantum =
          parse_number<std::size_t>("--quantum", next_value(i));
      if (options.daemon.scheduler.fair_quantum == 0) {
        throw CliError{"--quantum must be >= 1"};
      }
    } else if (arg == "--retention") {
      options.daemon.scheduler.retention_cap =
          parse_number<std::size_t>("--retention", next_value(i));
    } else if (arg == "--drain-grace") {
      options.drain_grace_seconds = parse_number<double>("--drain-grace", next_value(i));
      if (options.drain_grace_seconds < 0.0) throw CliError{"--drain-grace must be >= 0"};
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      throw CliError{"unknown option: " + std::string(arg)};
    }
  }
  options.daemon.port = static_cast<std::uint16_t>(options.port);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const CliError& error) {
    std::cerr << "byzrenamed: " << error.message << "\n\n";
    print_usage();
    return 2;
  }

  svc::Daemon daemon(options.daemon);
  try {
    daemon.start();
  } catch (const std::exception& error) {
    std::cerr << "byzrenamed: " << error.what() << '\n';
    return 2;
  }

  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);

  // The serving line always prints: with --port 0 it is the only way a
  // caller can learn the bound port (--quiet silences everything else).
  std::cout << "byzrenamed serving on http://127.0.0.1:" << daemon.port();
  if (!options.quiet) {
    std::cout << "  (POST /v1/session /v1/submit, GET /v1/poll /metrics /healthz /buildinfo; "
                 "threads="
              << daemon.scheduler().threads() << ")";
  }
  std::cout << '\n';
  std::cout.flush();

  while (!g_interrupted.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (!options.quiet) std::cout << "byzrenamed: draining (queued cancelled, in-flight complete)\n";
  // Drain first so every outcome is recorded, then keep the HTTP plane
  // up briefly: a client mid-poll can still collect final results.
  daemon.scheduler().shutdown(svc::Scheduler::DrainMode::kCancelQueued);
  if (options.drain_grace_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(options.drain_grace_seconds));
  }
  daemon.stop(svc::Scheduler::DrainMode::kCancelQueued);
  if (!options.quiet) std::cout << "byzrenamed: drained, exiting\n";
  return 0;
}
