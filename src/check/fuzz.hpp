// The fuzz driver: sweeps seed ranges under a wall-clock budget, checks
// invariants, shrinks failures, and produces a machine-readable report.
//
// This is the engine behind the aed_check CLI and the CI smoke/nightly
// runs. Everything is deterministic in (seedStart, seedCount, profile,
// invariant selection): re-running a sweep from a CI log reproduces the
// same scenarios and verdicts. A wall-clock budget can stop a sweep early
// (reported, never an error), so "15 minutes of fuzzing" is expressible
// without guessing a seed count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"

namespace aed::check {

struct FuzzOptions {
  std::uint64_t seedStart = 1;
  std::uint64_t seedCount = 100;
  /// Stop starting new scenarios once this much wall clock has elapsed
  /// (0 = no budget).
  double budgetSeconds = 0.0;
  InvariantMask invariants = kAllInvariants;
  /// The expensive invariants (incremental-equiv, resynth-noop,
  /// workers-equiv, input-holds) run only on every Nth scenario of the sweep
  /// (1 = every scenario, 0 = never), so smoke sweeps stay within budget
  /// while nightly runs still cover them.
  std::uint64_t expensiveEvery = 4;
  ScenarioProfile profile;
  /// Intentional fault injected into every scenario (aed_check --inject):
  /// exercises the harness end to end — the fault must be detected, shrunk,
  /// and emitted as a replayable repro.
  FaultInjection inject;
  bool shrink = true;
  ShrinkOptions shrinkOptions;
  /// Progress callback (seed, message); may be empty.
  std::function<void(std::uint64_t, const std::string&)> onEvent;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  InvariantFailure failure;   // as reproduced on the minimized scenario
  ShrinkStats shrinkStats;    // zeroed when shrinking was disabled
  Scenario minimized;         // the original scenario when shrink is off
  /// Serialized repro (writeRepro) for the minimized scenario.
  std::string repro;
  /// Where the CLI wrote the repro; recorded in the JSON report.
  std::string reproFile;
  /// Metrics snapshot (JSON array) taken right after the failing check, so
  /// the sweep report carries the counters/histograms at failure time.
  std::string metricsJson;
  /// Self-contained flight dump (renderDump) for the failing seed; the CLI
  /// writes it next to the repro file.
  std::string flightDump;
  /// Where the CLI wrote the flight dump; recorded in the JSON report.
  std::string flightDumpFile;
};

struct FuzzReport {
  std::uint64_t seedStart = 0;
  std::uint64_t seedsRun = 0;
  std::size_t invariantChecks = 0;  // individual invariant evaluations
  std::size_t skippedChecks = 0;    // selected but not evaluable
  std::size_t synthesized = 0;      // scenarios that produced a patch
  std::size_t unsatScenarios = 0;   // scenarios whose policy set was unsat
  double seconds = 0.0;
  bool budgetExhausted = false;
  std::map<std::string, std::size_t> checksByInvariant;
  std::vector<FuzzFailure> failures;
  /// Metrics snapshot (JSON array) at the end of the sweep.
  std::string metricsJson;

  bool clean() const { return failures.empty(); }
  /// Machine-readable summary (the aed_check --json artifact).
  std::string toJson() const;
};

FuzzReport runFuzz(const FuzzOptions& options);

}  // namespace aed::check
