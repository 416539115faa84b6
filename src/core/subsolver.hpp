// The solve path of one subproblem (the whole problem, or one destination
// group), from sketch to extracted patch. It has two steps:
//
//   step 0  input holds: synthesize() checks every policy on the input tree
//           once, with one SimulationEngine, before round 0. A group whose
//           policies all hold there, under objectives that the empty patch
//           satisfies (emptyPatchIsOptimal), is answered by
//           inputHoldsSubproblem(): its sketch is built, but no Z3 context.
//           The empty patch satisfies every soft constraint (each NOMODIFY
//           group and each per-delta minimality soft holds with every delta
//           inactive), so its cost is 0 and no patch costs less.
//   MaxSMT  every other group: solveSubproblem() builds the Sketch, an
//           SmtSession (and therefore the z3::context + z3::optimize
//           instance) and the Encoder, asserts every blocked delta set,
//           checks (falling down the anytime ladder when the full check
//           cannot answer), extracts the patch, and frees all of it before
//           returning.
//
// synthesize() runs every call on a pool worker, so each context is also
// torn down on the worker that solved it, in parallel with its siblings'
// solves: at most `workers` contexts are alive at once, and the teardown
// counts in SubResult::seconds. Every round still validates the merged
// patch, step-0 answers included, on the simulator.
//
// Repair rounds call solveSubproblem() again with the full blocked-delta
// list. That list grows monotonically across rounds — a delta combination
// that failed simulator validation once is invalid forever (the simulator
// is deterministic over a fixed tree+policy set) — so every blocking clause
// is a permanent hard constraint and a fresh solve given the whole list is
// exactly the repair round's problem. Each round pays a new sketch and
// encode; repair rounds are rare (DESIGN.md §6). A step-0 answer activates
// no delta, so it is never blamed and never re-solved.
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

/// The rung reason of a step-0 answer (inputHoldsSubproblem).
inline constexpr const char* kInputHoldsReason =
    "step 0: every policy holds on the input tree, so the empty patch is "
    "optimal at cost 0 (no solver run)";

/// True when the empty patch is optimal for every group whose policies hold
/// on the input tree: the per-delta minimality softs are on (the
/// NetComplete baseline turns them off and keeps its random-phase solve)
/// and every objective is NOMODIFY, so every soft constraint holds with no
/// delta active.
bool emptyPatchIsOptimal(const std::vector<Objective>& objectives,
                         const AedOptions& options);

/// Step 0 for a group whose policies all hold on `tree`: builds the sketch
/// solveSubproblem() would (so deltaCount is the same) and answers kOk at
/// rung kFull with the empty patch and every objective label satisfied,
/// without a Z3 context. Callers check emptyPatchIsOptimal() first.
SubResult inputHoldsSubproblem(const ConfigTree& tree, const Topology& topo,
                               const PolicySet& policies,
                               bool destinationScoped,
                               const std::vector<Objective>& objectives,
                               const AedOptions& options);

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
