#pragma once
// One supervised call in a single step, for tests and benches that drive the
// Supervisor directly (DESIGN.md §9). The analysis loop (core/pipeline.cpp)
// uses Admit()/Finish() itself, because the units of one interval may run on
// different workers; this helper is the single-unit case of that boundary.

#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "rfdump/core/supervisor.hpp"

namespace rfdump::testing {

/// Runs `fn` under the stage boundary: Admit (breaker check, armed budget,
/// fault hook), `fn(budget)` with exception containment, then Finish
/// (outcome accounting, breaker window, quarantine on failure). Returns
/// kSkipped without calling `fn` if the breaker is open.
template <typename F>
core::Outcome Supervise(core::Supervisor& supervisor, core::Protocol p,
                        std::int64_t start, std::int64_t end,
                        dsp::const_sample_span interval, F&& fn) {
  auto admission = supervisor.Admit(p, start, end, interval);
  if (!admission->admitted) return admission->outcome;
  core::Outcome outcome = core::Outcome::kOk;
  std::string error;
  try {
    fn(admission->budget);
    if (admission->budget.expired()) outcome = core::Outcome::kDeadline;
  } catch (const std::exception& e) {
    outcome = core::Outcome::kException;
    error = e.what();
  } catch (...) {
    outcome = core::Outcome::kException;
    error = "non-std exception";
  }
  return supervisor.Finish(*admission, outcome, std::move(error), interval);
}

}  // namespace rfdump::testing
