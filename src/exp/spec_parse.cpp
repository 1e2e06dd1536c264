#include "exp/spec_parse.h"

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "sim/fault.h"

namespace byzrename::exp {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("campaign spec: " + message);
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

template <typename Int>
Int parse_int(std::string_view key, std::string_view token) {
  Int value{};
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    fail(std::string(key) + " expects an integer, got '" + std::string(token) + "'");
  }
  return value;
}

/// One value token of an integer axis: `7`, `4..16`, or `4..64/4`.
void expand_axis_token(std::string_view key, std::string_view token, std::vector<int>& out) {
  if (token.empty()) {
    fail(std::string(key) + ": empty value in list (stray comma?)");
  }
  const std::size_t dots = token.find("..");
  if (dots == std::string_view::npos) {
    out.push_back(parse_int<int>(key, token));
    return;
  }
  const std::string_view from_text = token.substr(0, dots);
  std::string_view to_text = token.substr(dots + 2);
  int step = 1;
  if (const std::size_t slash = to_text.find('/'); slash != std::string_view::npos) {
    step = parse_int<int>(key, to_text.substr(slash + 1));
    to_text = to_text.substr(0, slash);
  }
  const int from = parse_int<int>(key, from_text);
  const int to = parse_int<int>(key, to_text);
  if (step < 1) fail(std::string(key) + ": range step must be >= 1");
  if (to < from) fail(std::string(key) + ": empty range '" + std::string(token) + "'");
  for (int v = from; v <= to; v += step) out.push_back(v);
}

core::Algorithm parse_algorithm(std::string_view name) {
  const std::optional<core::Algorithm> algorithm = core::algorithm_from_token(name);
  if (!algorithm.has_value()) fail("unknown algorithm '" + std::string(name) + "'");
  return *algorithm;
}

}  // namespace

CampaignSpec parse_campaign_spec(std::string_view text) {
  CampaignSpec spec;
  for (std::string_view clause : split(text, ';')) {
    if (clause.empty()) continue;
    const std::size_t equals = clause.find('=');
    const std::string_view key = clause.substr(0, equals);
    const std::string_view value =
        equals == std::string_view::npos ? std::string_view{} : clause.substr(equals + 1);
    if (key != "keep-invalid" && key != "no-validation" && value.empty()) {
      fail("clause '" + std::string(clause) + "' needs a value");
    }

    if (key == "algo" || key == "algorithm") {
      for (const std::string_view token : split(value, ',')) {
        if (token.empty()) fail("algo: empty value in list (stray comma?)");
        spec.algorithms.push_back(parse_algorithm(token));
      }
    } else if (key == "n") {
      for (const std::string_view token : split(value, ',')) {
        expand_axis_token(key, token, spec.n_values);
      }
    } else if (key == "t") {
      for (const std::string_view token : split(value, ',')) {
        expand_axis_token(key, token, spec.t_values);
      }
    } else if (key == "nt") {
      for (const std::string_view token : split(value, ',')) {
        if (token.empty()) fail("nt: empty value in list (stray comma?)");
        const std::size_t colon = token.find(':');
        if (colon == std::string_view::npos) {
          fail("nt expects n:t pairs, got '" + std::string(token) + "'");
        }
        spec.systems.push_back({.n = parse_int<int>(key, token.substr(0, colon)),
                                .t = parse_int<int>(key, token.substr(colon + 1))});
      }
    } else if (key == "adversary") {
      for (const std::string_view token : split(value, ',')) {
        if (token.empty()) fail("adversary: empty name");
        spec.adversaries.emplace_back(token);
      }
    } else if (key == "reps") {
      spec.repetitions = parse_int<int>(key, value);
      if (spec.repetitions < 1) fail("reps must be >= 1");
    } else if (key == "seed") {
      spec.master_seed = parse_int<std::uint64_t>(key, value);
    } else if (key == "faults") {
      spec.actual_faults = parse_int<int>(key, value);
    } else if (key == "iterations") {
      spec.options.approximation_iterations = parse_int<int>(key, value);
    } else if (key == "extra") {
      spec.extra_rounds = parse_int<int>(key, value);
    } else if (key == "fault" || key == "fault-plan") {
      try {
        spec.fault_plan = sim::parse_fault_plan(value);
      } catch (const std::invalid_argument& error) {
        fail(error.what());
      }
    } else if (key == "keep-invalid") {
      spec.skip_invalid = false;
    } else if (key == "kernel") {
      const std::optional<core::RankKernel> kernel = core::rank_kernel_from_token(value);
      if (!kernel.has_value()) {
        fail("kernel expects fixed or exact, got '" + std::string(value) + "'");
      }
      spec.options.rank_kernel = *kernel;
    } else if (key == "no-validation") {
      spec.options.validate_votes = false;  // ABLATION, see RenamingOptions
    } else if (key == "name") {
      spec.name = std::string(value);
    } else {
      fail("unknown key '" + std::string(key) + "'");
    }
  }

  if (spec.algorithms.empty()) spec.algorithms.push_back(core::Algorithm::kOpRenaming);
  if (spec.adversaries.empty()) spec.adversaries.emplace_back("silent");
  if (spec.n_values.empty() != spec.t_values.empty()) {
    fail("n and t must be given together (or use nt=n:t pairs)");
  }
  if (spec.n_values.empty() && spec.systems.empty()) {
    fail("no systems: give n=...;t=... or nt=n:t,...");
  }
  return spec;
}

}  // namespace byzrename::exp
