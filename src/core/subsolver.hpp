// One MaxSMT solve of one subproblem (the whole problem, or one destination
// group), from sketch to extracted patch, in a Z3 context of its own.
//
// solveSubproblem() builds the Sketch, an SmtSession (and therefore the
// z3::context + z3::optimize instance) and the Encoder, asserts every
// blocked delta set, checks, extracts the patch, and frees all of it before
// returning. synthesize() runs every call on a pool worker, so each
// context is also torn down on the worker that solved it, in
// parallel with its siblings' solves: at most `workers` contexts are alive
// at once, and the teardown counts in SubResult::seconds.
//
// Repair rounds call it again with the full blocked-delta list. That list
// grows monotonically across rounds — a delta combination that failed
// simulator validation once is invalid forever (the simulator is
// deterministic over a fixed tree+policy set) — so every blocking clause is
// a permanent hard constraint and a fresh solve given the whole list is
// exactly the repair round's problem. Each round pays a new sketch and
// encode; repair rounds are rare (DESIGN.md §6).
//
// Thread-safety: each call owns its own z3::context, so concurrent calls on
// distinct threads are safe. `tree` and `topo` are only read.
#pragma once

#include <string>
#include <vector>

#include "core/aed.hpp"

namespace aed {

/// Outcome of one solveSubproblem() call.
struct SubResult {
  SubOutcome outcome = SubOutcome::kError;
  ErrorCode code = ErrorCode::kNone;
  std::string detail;

  Patch patch;
  std::vector<std::string> satisfied;
  std::vector<std::string> violated;
  std::vector<std::string> activeDeltas;  // for blocking on repair
  /// Duration of synthesize()'s aed.subproblem span around the call:
  /// context construction through context release. solveSubproblem() itself
  /// leaves it 0.
  double seconds = 0.0;
  std::size_t deltaCount = 0;
  PhaseBreakdown phases;  // simulateSeconds stays 0: validation is per round
  /// Introspection (§12): which ladder rung answered this solve and why,
  /// plus Z3 effort counters and encoding sizes for the call. Totals across
  /// the rounds of one subproblem accumulate in SubproblemReport.
  SolveRung rung = SolveRung::kNone;
  std::string rungReason;
  SolverStats solverStats;
};

/// Solves the subproblem `policies` over `tree`/`topo` under every delta
/// combination in `blockedDeltaSets` (names of other subproblems' deltas are
/// ignored). `destinationScoped` confines the sketch to this subproblem's
/// destinations (see buildSketch); synthesize() sets it whenever there is
/// more than one subproblem. `options` supplies defaultMinimality,
/// randomPhaseSeed and the sketch and encoder options. `injectUnknown` forces the full MaxSMT
/// verdict to "unknown" (deterministic fault injection). The Z3 context is
/// released before the call returns, on the calling thread.
SubResult solveSubproblem(
    const ConfigTree& tree, const Topology& topo, const PolicySet& policies,
    bool destinationScoped, const std::vector<Objective>& objectives,
    const AedOptions& options,
    const std::vector<std::vector<std::string>>& blockedDeltaSets,
    const Deadline& deadline, bool injectUnknown = false);

}  // namespace aed
