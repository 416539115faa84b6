#include "core/subsolver.hpp"

#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "objectives/translate.hpp"
#include "smt/session.hpp"

namespace aed {

namespace {

/// User objectives are scaled by this factor so they dominate the default
/// per-delta minimality pressure; within the user's objectives the paper's
/// "equal weight by default" still holds.
constexpr unsigned kObjectiveWeightScale = 1000;
/// Weight of each per-delta minimality soft (doubles as the min-lines
/// objective; keeps patches free of gratuitous edits).
constexpr unsigned kMinimalityWeight = 1;

}  // namespace

SubResult solveSubproblem(
    const ConfigTree& tree, const Topology& topo, const PolicySet& policies,
    bool destinationScoped, const std::vector<Objective>& objectives,
    const AedOptions& options,
    const std::vector<std::vector<std::string>>& blockedDeltaSets,
    const Deadline& deadline, bool injectUnknown) {
  SubResult result;
  const Sketch sketch = [&] {
    const Span span("subsolver.sketch", &result.phases.sketchSeconds);
    return buildSketch(tree, topo, policies, options.sketch,
                       destinationScoped);
  }();
  result.deltaCount = sketch.deltas().size();

  // Declared after the sketch and before the encoder, which references
  // both: the encoder is destroyed first.
  SmtSession session;
  if (options.randomPhaseSeed != 0) {
    session.randomizePhase(options.randomPhaseSeed);
  }
  session.setDeadline(deadline);
  if (injectUnknown) session.injectUnknown(1);

  std::optional<Encoder> encoder;
  {
    const Span span("subsolver.encode", &result.phases.encodeSeconds);
    encoder.emplace(session, tree, topo, sketch, options.encoder);
    encoder->encode(policies);
    // User objectives (scaled), then the default minimality pressure.
    std::vector<Objective> scaled = objectives;
    for (Objective& objective : scaled) {
      objective.weight *= kObjectiveWeightScale;
    }
    addObjectives(*encoder, scaled);
    if (options.defaultMinimality) {
      addPerDeltaMinimality(*encoder, kMinimalityWeight);
    }
  }

  // Every delta combination that failed validation in an earlier round is
  // a permanent hard constraint (see the header).
  for (const std::vector<std::string>& blockedSet : blockedDeltaSets) {
    z3::expr all = session.boolVal(true);
    bool any = false;
    for (const std::string& name : blockedSet) {
      const DeltaVar* delta = sketch.findByName(name);
      if (delta == nullptr) continue;  // another subproblem's delta
      all = all && encoder->deltaActive(*delta);
      any = true;
    }
    if (any) session.addHard(!all);
  }

  SmtSession::Result check;
  {
    Span span("subsolver.solve", &result.phases.solveSeconds);
    check = session.check();
    if (span.active()) span.setDetail("status=" + check.status);
  }
  result.rung = check.rung;
  result.rungReason = std::move(check.rungReason);
  result.solverStats = check.stats;

  if (!check.sat) {
    if (check.code == ErrorCode::kUnsat) {
      result.outcome = SubOutcome::kUnsat;
      result.code = ErrorCode::kUnsat;
      result.detail = "hard constraints unsatisfiable";
    } else if (check.code == ErrorCode::kTimeout) {
      result.outcome = SubOutcome::kTimedOut;
      result.code = ErrorCode::kTimeout;
      result.detail =
          "wall-clock budget exhausted (status " + check.status + ")";
    } else {
      result.outcome = SubOutcome::kError;
      result.code = ErrorCode::kSolverUnknown;
      result.detail = "solver answered " + check.status;
    }
    return result;
  }

  switch (check.rung) {
    case SolveRung::kNoMinimality:
      result.outcome = SubOutcome::kDegraded;
      result.detail = "degraded: minimality softs dropped";
      break;
    case SolveRung::kHardOnly:
      result.outcome = SubOutcome::kDegraded;
      result.detail = "degraded: hard constraints only";
      break;
    default:  // kFull: the only other rung a sat answer carries
      result.outcome = SubOutcome::kOk;
      break;
  }

  {
    const Span span("subsolver.extract", &result.phases.extractSeconds);
    result.patch = encoder->extractPatch();
    for (const DeltaVar& delta : sketch.deltas()) {
      if (session.evalBool(encoder->deltaActive(delta))) {
        result.activeDeltas.push_back(delta.name);
      }
    }
  }

  // Only user objectives are reported; the per-delta minimality softs are an
  // internal mechanism.
  for (const std::string& label : check.satisfiedObjectives) {
    if (label.rfind("min-change:", 0) != 0) result.satisfied.push_back(label);
  }
  for (const std::string& label : check.violatedObjectives) {
    if (label.rfind("min-change:", 0) != 0) result.violated.push_back(label);
  }
  return result;
}

}  // namespace aed
