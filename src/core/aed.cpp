#include "core/aed.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <thread>

#include "core/subsolver.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace aed {

namespace {

/// Did the subproblem yield a usable (hard-constraint-satisfying) patch?
bool usable(const SubResult& sub) {
  return sub.outcome == SubOutcome::kOk || sub.outcome == SubOutcome::kDegraded;
}

SubResult failedSubResult(SubOutcome outcome, ErrorCode code,
                          const std::string& detail) {
  SubResult result;
  result.outcome = outcome;
  result.code = code;
  result.detail = detail;
  return result;
}

// Latency/effort histograms (§12). Handles are cached once (function-local
// statics into the leaked global registry) so the record path is pure
// relaxed atomics. All four are recorded on the coordinating thread at the
// post-join merge points, like every other engine metric.
MetricsRegistry::Histogram& histCheckSeconds() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("smt.check_seconds");
  return h;
}
MetricsRegistry::Histogram& histSubproblemSeconds() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("aed.subproblem_seconds");
  return h;
}
MetricsRegistry::Histogram& histRoundSeconds() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("aed.round_seconds");
  return h;
}
MetricsRegistry::Histogram& histConflicts() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("smt.conflicts");
  return h;
}
MetricsRegistry::Histogram& histDecisions() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("smt.decisions");
  return h;
}

/// Renders the per-subproblem states (outcome, rung, solver effort) as a
/// JSON array for the flight dump's "subproblems" section.
std::string subproblemsJson(const AedResult& result) {
  std::string out = "[";
  bool first = true;
  for (const SubproblemReport& report : result.subproblems) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"index\": " + std::to_string(report.index) +
           ", \"destination\": \"" + jsonEscape(report.destination) +
           "\", \"outcome\": \"" + subOutcomeName(report.outcome) +
           "\", \"code\": \"" + errorCodeName(report.code) +
           "\", \"rung\": \"" + solveRungName(report.rung) +
           "\", \"seconds\": " + std::to_string(report.seconds) +
           ", \"conflicts\": " + std::to_string(report.solverStats.conflicts) +
           ", \"decisions\": " + std::to_string(report.solverStats.decisions) +
           ", \"vars\": " + std::to_string(report.solverStats.vars) +
           ", \"assertions\": " +
           std::to_string(report.solverStats.assertions) +
           ", \"detail\": \"" + jsonEscape(report.detail) + "\"}";
  }
  out += "\n  ]";
  return out;
}

/// Mirrors one phase breakdown into the unified counter registry under
/// `prefix` ("aed.phase.first_round" → "aed.phase.first_round.solve_seconds").
void publishPhase(MetricsRegistry& metrics, const std::string& prefix,
                  const PhaseBreakdown& phases) {
  metrics.add(prefix + ".sketch_seconds", phases.sketchSeconds);
  metrics.add(prefix + ".encode_seconds", phases.encodeSeconds);
  metrics.add(prefix + ".solve_seconds", phases.solveSeconds);
  metrics.add(prefix + ".extract_seconds", phases.extractSeconds);
  metrics.add(prefix + ".simulate_seconds", phases.simulateSeconds);
}

/// Mirrors the finished run's AedStats (and the absorbed SimCacheStats) into
/// the registry. Called exactly once per synthesize() call — success, failed,
/// cancelled, or thrown — from the coordinating thread, after every worker
/// has been joined: workers only ever report through their own SubResult
/// slot, so the merge here cannot race (see DESIGN.md §10).
void publishStats(const AedResult& result) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  const AedStats& stats = result.stats;
  metrics.add("aed.runs", 1.0);
  if (!result.success) metrics.add("aed.runs_failed", 1.0);
  if (result.degraded) metrics.add("aed.runs_degraded", 1.0);
  metrics.add("aed.total_seconds", stats.totalSeconds);
  metrics.add("aed.subproblems", static_cast<double>(stats.subproblems));
  metrics.add("aed.subproblems_degraded",
              static_cast<double>(stats.degradedSubproblems));
  metrics.add("aed.subproblems_failed",
              static_cast<double>(stats.failedSubproblems));
  metrics.add("aed.repair_rounds", static_cast<double>(stats.repairRounds));
  metrics.add("aed.delta_count", static_cast<double>(stats.deltaCount));
  metrics.add("aed.sum_subproblem_seconds", stats.sumSubproblemSeconds);
  publishPhase(metrics, "aed.phase.first_round", stats.firstRound);
  publishPhase(metrics, "aed.phase.repair", stats.repair);

  const SimCacheStats& sim = stats.simulate;
  metrics.add("sim.route_hits", static_cast<double>(sim.routeHits));
  metrics.add("sim.route_misses", static_cast<double>(sim.routeMisses));
  metrics.add("sim.parallel_batches",
              static_cast<double>(sim.parallelBatches));
  metrics.add("sim.parallel_tasks", static_cast<double>(sim.parallelTasks));

  // Ladder-rung outcome counters (§12), registered even at zero so the
  // snapshot is complete (a missing known stat fails tests/obs_test.cpp).
  // Names derive from solveRungName ("hard-only" → "smt.rung.hard_only").
  for (std::size_t r = 1; r < stats.rungCounts.size(); ++r) {
    std::string name = std::string("smt.rung.") +
                       solveRungName(static_cast<SolveRung>(r));
    std::replace(name.begin(), name.end(), '-', '_');
    metrics.add(name, static_cast<double>(stats.rungCounts[r]));
  }

  // Touch the engine histograms so they exist in every post-run snapshot,
  // recorded or not.
  histCheckSeconds();
  histSubproblemSeconds();
  histRoundSeconds();
  histConflicts();
  histDecisions();
}

}  // namespace

const char* subOutcomeName(SubOutcome outcome) {
  switch (outcome) {
    case SubOutcome::kOk: return "ok";
    case SubOutcome::kDegraded: return "degraded";
    case SubOutcome::kTimedOut: return "timed_out";
    case SubOutcome::kUnsat: return "unsat";
    case SubOutcome::kError: return "error";
    case SubOutcome::kCancelled: return "cancelled";
  }
  return "error";
}

Patch mergePatches(const std::vector<Patch>& patches) {
  Patch merged;
  std::set<std::string> seen;            // dedupe identical edits
  std::set<std::pair<std::string, int>> usedSeqs;

  const auto editKey = [](const Edit& edit) {
    std::string key = std::to_string(static_cast<int>(edit.op)) + "|" +
                      edit.targetPath + "|" +
                      std::string(nodeKindName(edit.kind));
    for (const auto& [k, v] : edit.attrs) key += "|" + k + "=" + v;
    return key;
  };

  // Deterministic collision renumbering: the nearest free *positive*
  // sequence number, searching downward first (a prepended rule should stay
  // in front of the rules it was solved against), then upward. Sequence
  // numbers must stay >= 1 — the config dialect has no zero/negative seq,
  // and the simulator's seq-sorted evaluation would order them wrongly.
  const auto renumber = [&usedSeqs](const std::string& path, int seq) {
    int down = seq > 1 ? seq - 1 : 0;  // 0: no positive slot below seq
    while (down >= 1 && usedSeqs.count({path, down}) != 0) --down;
    if (down >= 1) return down;
    int up = seq >= 1 ? seq + 1 : 1;
    while (usedSeqs.count({path, up}) != 0) ++up;
    return up;
  };

  for (const Patch& patch : patches) {
    for (const Edit& edit : patch.edits()) {
      Edit copy = edit;
      const bool isRuleAdd =
          copy.op == Edit::Op::kAddNode &&
          (copy.kind == NodeKind::kRouteFilterRule ||
           copy.kind == NodeKind::kPacketFilterRule) &&
          copy.attrs.count("seq") != 0;
      if (isRuleAdd) {
        int seq = parseInt(copy.attrs.at("seq"),
                           "seq of merged rule addition at " + copy.targetPath);
        if (seq < 1 || (usedSeqs.count({copy.targetPath, seq}) != 0 &&
                        seen.count(editKey(copy)) == 0)) {
          seq = renumber(copy.targetPath, seq);
          copy.attrs["seq"] = std::to_string(seq);
        }
        usedSeqs.insert({copy.targetPath, seq});
      }
      const std::string key = editKey(copy);
      if (seen.insert(key).second) merged.add(std::move(copy));
    }
  }
  return merged;
}

namespace {

/// Aggregates the reports and each group's last solve into the run's stats
/// and objective lists, publishes them and, for a non-clean exit, leaves a
/// flight dump. synthesize() calls it once, on every exit, so failed and
/// thrown runs are just as attributable as successful ones.
void finalize(AedResult& result, const std::vector<SubResult>& subResults) {
  for (const SubproblemReport& report : result.subproblems) {
    if (report.outcome == SubOutcome::kDegraded) {
      ++result.stats.degradedSubproblems;
    } else if (report.outcome != SubOutcome::kOk) {
      ++result.stats.failedSubproblems;
    }
    if (report.outcome != SubOutcome::kOk) result.degraded = true;
  }
  std::set<std::string> violatedLabels;
  for (const SubResult& sub : subResults) {
    violatedLabels.insert(sub.violated.begin(), sub.violated.end());
    result.stats.deltaCount += sub.deltaCount;
  }
  std::set<std::string> satisfiedLabels;
  for (const SubResult& sub : subResults) {
    for (const std::string& label : sub.satisfied) {
      if (violatedLabels.count(label) == 0) satisfiedLabels.insert(label);
    }
  }
  result.satisfiedObjectives.assign(satisfiedLabels.begin(),
                                    satisfiedLabels.end());
  result.violatedObjectives.assign(violatedLabels.begin(),
                                   violatedLabels.end());
  publishStats(result);
  Progress::setPhase(result.success ? (result.degraded ? "degraded" : "done")
                                    : "failed");

  // Post-mortem (§12): any non-clean exit — failed, thrown, cancelled, or
  // degraded — leaves a flight dump when a dump destination is configured.
  if (!result.success || result.degraded) {
    FlightRecorder::DumpContext dump;
    dump.reason = result.success ? "synthesize-degraded" : "synthesize-failed";
    dump.errorCode = errorCodeName(result.errorCode);
    dump.detail = result.error;
    dump.sections.emplace_back("subproblems", subproblemsJson(result));
    FlightRecorder::maybeDump(dump);
  }
}

/// The body of synthesize(): partition, solve rounds with simulator-validated
/// repair, then the optional staged deployment. Leaves each group's last
/// solve in `subResults`. A failed run returns with the error set and
/// result.success false; a deterministic error propagates.
void synthesizeInto(const ConfigTree& tree, const PolicySet& policies,
                    const std::vector<Objective>& objectives,
                    const AedOptions& options, AedResult& result,
                    std::vector<SubResult>& subResults) {
  const auto fail = [&result](ErrorCode code, std::string message) {
    result.error = std::move(message);
    result.errorCode = code;
  };
  const Topology topo = Topology::fromConfigs(tree);

  const Deadline globalDeadline = options.timeBudgetMs != 0
                                      ? Deadline::after(options.timeBudgetMs)
                                      : Deadline::unlimited();
  const auto cancelled = [&options] {
    return options.cancel != nullptr && options.cancel->stopRequested();
  };

  // ---- partition into subproblems -----------------------------------------
  // One report per group, updated at every round's merge. Its outcome starts
  // as a SubResult's does, so a group that never finished a solve reports an
  // error, not success.
  std::vector<PolicySet> groups;
  const auto addGroup = [&](const PolicySet& set, std::string destination) {
    SubproblemReport report;
    report.index = groups.size();
    report.destination = std::move(destination);
    report.policyCount = set.size();
    report.outcome = SubResult().outcome;
    result.subproblems.push_back(std::move(report));
    groups.push_back(set);
  };
  if (options.perDestination) {
    for (auto& [dst, set] : groupByDestination(policies)) {
      addGroup(set, dst.str());
    }
  } else if (!policies.empty()) {
    addGroup(policies, "*");
  }
  // Confine each subproblem to destination-local changes so parallel
  // solutions cannot conflict (§8; see buildSketch).
  const bool destinationScoped = groups.size() > 1;
  result.stats.subproblems = groups.size();
  subResults.resize(groups.size());
  Progress::setPhase("solve");
  Progress::setRound(0);
  Progress::setWork(groups.size());

  // ---- solve (with simulator-validated repair rounds) ---------------------
  std::vector<std::vector<std::string>> blocked;  // shared across rounds
  std::vector<bool> needsSolve(groups.size(), true);

  // Validation engine, persistent across repair rounds; each round re-binds
  // it to that round's tree, which drops every cached table.
  std::optional<SimulationEngine> simEngine;

  const std::size_t workers =
      options.workers != 0
          ? options.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  for (int round = 0; round <= options.maxRepairIterations; ++round) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (needsSolve[i]) pending.push_back(i);
    }
    if (pending.empty()) break;

    // The round's duration (solve + validate) is the aed.round span's own.
    // The guard is declared before the span, so it is destroyed after it and
    // records the stored duration however the iteration exits (success
    // break, failed return, or rethrow).
    double roundSeconds = 0.0;
    struct RoundHistogram {
      const double& seconds;
      ~RoundHistogram() { histRoundSeconds().record(seconds); }
    } roundHistogram{roundSeconds};
    Span roundSpan("aed.round", &roundSeconds);
    if (roundSpan.active()) {
      roundSpan.setDetail("round=" + std::to_string(round) +
                          " pending=" + std::to_string(pending.size()));
    }
    Progress::setPhase(round == 0 ? "solve" : "repair");
    Progress::setRound(static_cast<std::size_t>(round));
    Progress::setWork(pending.size());

    // Split the remaining global budget across the queued subproblems: each
    // of the ceil(pending/lanes) sequential batches gets an equal share.
    const std::size_t lanes = std::min(workers, pending.size());
    std::uint64_t perSubproblemMs = Deadline::kForeverMs;
    if (!globalDeadline.isUnlimited()) {
      const std::size_t batches = (pending.size() + lanes - 1) / lanes;
      perSubproblemMs = std::max<std::uint64_t>(
          1, globalDeadline.remainingMillis() / batches);
    }

    // Workers write only their own subResults slot, and classify a failure
    // there, once. Infrastructure failures (timeouts, solver exceptions,
    // fault injection, cancellation) are isolated, so one poisoned
    // destination never discards sibling work. Deterministic AedErrors
    // (malformed input, invariant violations) are recorded too, then
    // rethrown to fail the run once every sibling has been collected.
    const auto isolatable = [](ErrorCode code) {
      return code == ErrorCode::kSubproblemFailed ||
             code == ErrorCode::kTimeout ||
             code == ErrorCode::kSolverUnknown ||
             code == ErrorCode::kCancelled;
    };
    const auto solveOne = [&](std::size_t i) {
      // Set by the aed.subproblem span on close; stays 0 for a subproblem
      // that never reaches solveSubproblem (cancelled, injected throw).
      double seconds = 0.0;
      const std::string& dst = result.subproblems[i].destination;
      std::exception_ptr fatal;
      try {
        const FaultInjection& fault = options.faultInjection;
        const bool injected =
            fault.kind != FaultInjection::Kind::kNone &&
            fault.subproblem >= 0 &&
            static_cast<std::size_t>(fault.subproblem) == i;
        if (injected && fault.kind == FaultInjection::Kind::kThrow) {
          throw AedError(ErrorCode::kSubproblemFailed,
                         "fault injection: subproblem " + std::to_string(i) +
                             " threw");
        }
        if (injected && fault.kind == FaultInjection::Kind::kDelay) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fault.delayMs));
        }
        if (cancelled()) {
          subResults[i] = failedSubResult(SubOutcome::kCancelled,
                                          ErrorCode::kCancelled,
                                          "cancelled before solving");
          return;
        }
        Deadline deadline = globalDeadline;
        if (!globalDeadline.isUnlimited()) {
          deadline = Deadline::after(perSubproblemMs).min(globalDeadline);
        }
        // Runs on a pool worker: the worker installed the submitting
        // thread's span context, so this span parents under the round span
        // regardless of which thread executes it. solveSubproblem builds,
        // solves and frees its own Z3 context, so the span — and with it
        // SubResult::seconds — covers the context's release too.
        Span span("aed.subproblem", &seconds);
        if (span.active()) span.setDetail("dst=" + dst);
        subResults[i] = solveSubproblem(
            tree, topo, groups[i], destinationScoped, objectives, options,
            blocked, deadline,
            injected && fault.kind == FaultInjection::Kind::kUnknown);
        if (span.active()) {
          const SubResult& sub = subResults[i];
          span.setDetail("dst=" + dst +
                         " vars=" + std::to_string(sub.solverStats.vars) +
                         " assertions=" +
                         std::to_string(sub.solverStats.assertions) +
                         " conflicts=" +
                         std::to_string(sub.solverStats.conflicts) +
                         " rung=" + solveRungName(sub.rung));
        }
      } catch (const AedError& e) {
        const SubOutcome outcome = e.code() == ErrorCode::kTimeout
                                       ? SubOutcome::kTimedOut
                                   : e.code() == ErrorCode::kCancelled
                                       ? SubOutcome::kCancelled
                                       : SubOutcome::kError;
        subResults[i] = failedSubResult(outcome, e.code(), e.what());
        if (!isolatable(e.code())) fatal = std::current_exception();
      } catch (const std::exception& e) {
        // Covers z3::exception: solver infrastructure trouble, isolated.
        subResults[i] = failedSubResult(
            SubOutcome::kError, ErrorCode::kSubproblemFailed, e.what());
      }
      subResults[i].seconds = seconds;
      Progress::incrDone();
      if (fatal) std::rethrow_exception(fatal);
    };
    // One pool per round, one thread per lane (a single group or one worker
    // solves on one pool thread). runParallel collects every task, and its
    // pool has joined its workers, before the first escaped error gets here.
    std::vector<std::function<void()>> tasks;
    for (std::size_t i : pending) {
      tasks.emplace_back([&solveOne, i] { solveOne(i); });
    }
    std::exception_ptr escaped;
    try {
      runParallel(std::move(tasks), lanes);
    } catch (...) {
      escaped = std::current_exception();
    }
    for (std::size_t i : pending) needsSolve[i] = false;

    // Merge this round's solves into the reports and the phase timing, split
    // by round kind (round 0 or repair); every solve, repair rounds included,
    // pays its own sketch + encode. Merged before the fatal rethrow below so
    // the work the siblings completed this round stays attributable even
    // when the run unwinds.
    PhaseBreakdown& phaseBucket =
        round == 0 ? result.stats.firstRound : result.stats.repair;
    double slowestSeconds = 0.0;
    for (std::size_t i : pending) {
      const SubResult& sub = subResults[i];
      SubproblemReport& report = result.subproblems[i];
      report.outcome = sub.outcome;
      report.code = sub.code;
      report.detail = sub.detail;
      report.rung = sub.rung;
      report.rungReason = sub.rungReason;
      report.seconds += sub.seconds;
      slowestSeconds = std::max(slowestSeconds, sub.seconds);
      result.stats.sumSubproblemSeconds += sub.seconds;
      phaseBucket.sketchSeconds += sub.phases.sketchSeconds;
      phaseBucket.encodeSeconds += sub.phases.encodeSeconds;
      phaseBucket.solveSeconds += sub.phases.solveSeconds;
      phaseBucket.extractSeconds += sub.phases.extractSeconds;
      // §12 introspection, merged post-join on this thread: per-solve
      // latency/effort distributions and ladder-rung outcomes.
      histSubproblemSeconds().record(sub.seconds);
      if (sub.rung != SolveRung::kNone) {
        histCheckSeconds().record(sub.phases.solveSeconds);
        histConflicts().record(
            static_cast<double>(sub.solverStats.conflicts));
        histDecisions().record(
            static_cast<double>(sub.solverStats.decisions));
        ++result.stats.rungCounts[static_cast<std::size_t>(sub.rung)];
        report.solverStats.accumulate(sub.solverStats);
      }
    }
    // Rounds run one after another, so the critical path adds up each
    // round's slowest solve.
    result.stats.maxSubproblemSeconds += slowestSeconds;
    if (escaped) std::rethrow_exception(escaped);

    // Unsat is fatal for the whole run: the policies conflict (§11 "SMT
    // output for special cases"), and a partial patch would silently drop a
    // policy the operator asked for.
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (subResults[i].outcome == SubOutcome::kUnsat) {
        fail(ErrorCode::kUnsat,
             "unsatisfiable: the policies cannot all be implemented "
             "(subproblem " +
                 std::to_string(i) + ", " +
                 std::to_string(groups[i].size()) + " policies)");
        return;
      }
    }

    // Fault isolation: infrastructure failures (timeout, exception, solver
    // unknown, cancellation) are reported per subproblem; the survivors'
    // patches are still merged. Only when nothing survived is the whole run
    // a failure.
    std::size_t usableCount = 0;
    for (const SubResult& sub : subResults) {
      if (usable(sub)) ++usableCount;
    }
    if (usableCount == 0 && !groups.empty()) {
      const auto firstWith = [&](SubOutcome outcome) -> const SubResult* {
        for (const SubResult& sub : subResults) {
          if (sub.outcome == outcome) return &sub;
        }
        return nullptr;
      };
      if (firstWith(SubOutcome::kCancelled) != nullptr) {
        fail(ErrorCode::kCancelled, "cancelled by the caller");
        return;
      }
      if (firstWith(SubOutcome::kTimedOut) != nullptr) {
        fail(ErrorCode::kTimeout,
             "time budget exhausted before any subproblem was solved");
        return;
      }
      const SubResult* errored = firstWith(SubOutcome::kError);
      fail(errored != nullptr ? errored->code : ErrorCode::kInternal,
           "all subproblems failed" +
               (errored != nullptr && !errored->detail.empty()
                    ? " (first: " + errored->detail + ")"
                    : std::string()));
      return;
    }
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (!usable(subResults[i])) {
        logWarn() << "subproblem " << i << " ("
                  << result.subproblems[i].destination
                  << ") failed: " << subOutcomeName(subResults[i].outcome)
                  << (subResults[i].detail.empty()
                          ? ""
                          : " — " + subResults[i].detail);
      }
    }

    // Merge the surviving patches and validate against the concrete
    // simulator. Policies owned by failed subproblems are excluded from
    // validation — they are already reported as unsatisfied.
    std::vector<Patch> patches;
    PolicySet survivingPolicies;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (!usable(subResults[i])) continue;
      patches.push_back(subResults[i].patch);
      survivingPolicies.insert(survivingPolicies.end(), groups[i].begin(),
                               groups[i].end());
    }
    Patch merged = mergePatches(patches);
    ConfigTree updated = merged.applied(tree);

    if (!options.validateWithSimulator) {
      result.patch = std::move(merged);
      result.updated = std::move(updated);
      break;
    }
    PolicySet violated;
    double simulateSeconds = 0.0;
    {
      const Span span("aed.validate", &simulateSeconds);
      Progress::setPhase("validate");
      if (simEngine) {
        simEngine->rebind(updated);
      } else {
        simEngine.emplace(updated, options.workers);
      }
      violated = simEngine->violations(survivingPolicies);
      result.stats.simulate = simEngine->cacheStats();
    }
    phaseBucket.simulateSeconds += simulateSeconds;
    // Deterministic fault injection for repair-heavy scenarios: treat the
    // first rejectRounds passing verdicts as failures, so the blocking +
    // re-solve machinery runs for real (tests and bench_incremental).
    if (violated.empty() &&
        options.faultInjection.kind ==
            FaultInjection::Kind::kRejectValidation &&
        round < options.faultInjection.rejectRounds) {
      // Only policies whose owning subproblem actually made changes can be
      // rejected: an empty patch has no delta set to block, so rejecting its
      // policies would fabricate a model/simulator divergence.
      PolicySet rejectable;
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (!usable(subResults[i]) || subResults[i].activeDeltas.empty()) {
          continue;
        }
        rejectable.insert(rejectable.end(), groups[i].begin(),
                          groups[i].end());
      }
      if (!rejectable.empty()) {
        logWarn() << "fault injection: rejecting the round-" << round
                  << " validation verdict";
        violated = std::move(rejectable);
      }
    }
    if (violated.empty()) {
      result.patch = std::move(merged);
      result.updated = std::move(updated);
      break;
    }
    ++result.stats.repairRounds;
    if (round == options.maxRepairIterations) {
      fail(ErrorCode::kValidationFailed,
           "validation failed after repair rounds: " +
               std::to_string(violated.size()) +
               " policies still violated (first: " + violated[0].str() +
               ")");
      return;
    }
    if (cancelled()) {
      fail(ErrorCode::kCancelled, "cancelled during repair");
      return;
    }
    if (globalDeadline.expired()) {
      fail(ErrorCode::kTimeout,
           "time budget exhausted during repair: " +
               std::to_string(violated.size()) +
               " policies still violated");
      return;
    }
    // Block the delta sets of the subproblems owning the violated policies
    // and re-solve just those.
    logWarn() << "patch failed simulation for " << violated.size()
              << " policies; blocking and re-solving";
    // A group's active delta set is pushed at most once per round, even when
    // it owns several violated policies: every later solve asserts the whole
    // list, so a duplicate blocking clause would bloat each of them.
    std::set<std::size_t> blamedGroups;
    const auto blame = [&](std::size_t i) {
      needsSolve[i] = true;
      if (blamedGroups.insert(i).second) {
        blocked.push_back(subResults[i].activeDeltas);
      }
    };
    for (const Policy& policy : violated) {
      bool blamed = false;
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (!usable(subResults[i])) continue;
        const bool owns =
            std::any_of(groups[i].begin(), groups[i].end(),
                        [&policy](const Policy& p) {
                          return p.cls.dst == policy.cls.dst;
                        });
        if (!owns || subResults[i].activeDeltas.empty()) continue;
        blame(i);
        blamed = true;
      }
      if (!blamed) {
        // The owning subproblem made no changes: another group's deltas
        // broke this policy. Block every non-empty surviving group.
        for (std::size_t i = 0; i < groups.size(); ++i) {
          if (!usable(subResults[i])) continue;
          if (subResults[i].activeDeltas.empty()) continue;
          blame(i);
          blamed = true;
        }
      }
      if (!blamed) {
        fail(ErrorCode::kInternal,
             "model/simulator divergence with an empty patch for " +
                 policy.str());
        return;
      }
    }
  }

  // ---- staged deployment (AedOptions::stagedDeployment) --------------------
  // Plan a policy-safe rollout of the synthesized patch and execute it
  // against a scratch clone of the input tree (with any configured stage
  // fault injected). An aborted deployment degrades the result — the patch
  // itself is still valid — and result.updated keeps its meaning: the tree
  // after the *full* patch.
  if (options.stagedDeployment && !result.patch.empty()) {
    Progress::setPhase("deploy");
    DeployOptions deployOptions = options.deploy;
    if (deployOptions.workers == 0) deployOptions.workers = options.workers;
    result.deployment =
        planStagedRollout(tree, result.patch, policies, deployOptions);
    DeployFaultInjection deployFault;
    if (options.faultInjection.kind ==
        FaultInjection::Kind::kStageCommitFailure) {
      deployFault.kind = DeployFaultInjection::Kind::kStageCommitFailure;
      deployFault.stage = options.faultInjection.applyStage;
      deployFault.atEdit = options.faultInjection.applyEdit;
    } else if (options.faultInjection.kind ==
               FaultInjection::Kind::kStageValidationTimeout) {
      deployFault.kind = DeployFaultInjection::Kind::kValidationTimeout;
      deployFault.stage = options.faultInjection.applyStage;
    }
    ConfigTree staged = tree.clone();
    if (!executeDeployment(staged, result.deployment, deployOptions,
                           deployFault)) {
      result.degraded = true;
      logWarn() << "staged deployment aborted ["
                << errorCodeName(result.deployment.code)
                << "]: " << result.deployment.error;
    }
  }

  result.success = true;
}

}  // namespace

AedResult synthesize(const ConfigTree& tree, const PolicySet& policies,
                     const std::vector<Objective>& objectives,
                     const AedOptions& options) {
  AedResult result;
  result.updated = tree.clone();
  std::vector<SubResult> subResults;
  // The one exit: the run's wall clock is the aed.synthesize span's own
  // duration, and the span closes before the stats are finalized, so a
  // thrown run's flight dump holds it too. A thrown run is finalized like
  // any other, then its error is rethrown to the caller.
  std::exception_ptr thrown;
  {
    const Span runSpan("aed.synthesize", &result.stats.totalSeconds);
    try {
      synthesizeInto(tree, policies, objectives, options, result, subResults);
    } catch (...) {
      thrown = std::current_exception();
    }
  }
  if (thrown && result.errorCode == ErrorCode::kNone) {
    result.errorCode = ErrorCode::kInternal;  // success is still false
  }
  finalize(result, subResults);
  if (thrown) std::rethrow_exception(thrown);
  return result;
}

}  // namespace aed
