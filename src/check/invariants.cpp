#include "check/invariants.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <sstream>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/diff.hpp"
#include "conftree/journal.hpp"
#include "conftree/printer.hpp"
#include "core/subsolver.hpp"
#include "objectives/objective.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"
#include "topology/topology.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aed::check {

namespace {

struct InvariantInfo {
  Invariant invariant;
  const char* name;
};

constexpr InvariantInfo kInvariantTable[] = {
    {Invariant::kSynthSound, "synth-sound"},
    {Invariant::kSimDifferential, "sim-differential"},
    {Invariant::kJournalRollback, "journal-rollback"},
    {Invariant::kStagedVsOneShot, "staged-oneshot"},
    {Invariant::kIncrementalEquiv, "incremental-equiv"},
    {Invariant::kResynthNoOp, "resynth-noop"},
    {Invariant::kPolicyOrder, "policy-order"},
    {Invariant::kRouterOrder, "router-order"},
    {Invariant::kWorkersEquiv, "workers-equiv"},
    {Invariant::kInputHolds, "input-holds"},
};

std::vector<std::string> policyStrings(const PolicySet& policies) {
  std::vector<std::string> out;
  out.reserve(policies.size());
  for (const Policy& policy : policies) out.push_back(policy.str());
  return out;
}

std::vector<std::string> editStrings(const Patch& patch) {
  std::vector<std::string> out;
  out.reserve(patch.size());
  for (const Edit& edit : patch.edits()) out.push_back(edit.describe());
  return out;
}

std::vector<std::string> sortedPolicyStrings(const PolicySet& policies) {
  std::vector<std::string> out = policyStrings(policies);
  std::sort(out.begin(), out.end());
  return out;
}

std::string summarize(const std::vector<std::string>& items,
                      std::size_t limit = 4) {
  std::string out;
  for (std::size_t i = 0; i < items.size() && i < limit; ++i) {
    if (i > 0) out += "; ";
    out += items[i];
  }
  if (items.size() > limit) {
    out += "; ... (" + std::to_string(items.size() - limit) + " more)";
  }
  return out.empty() ? std::string("<none>") : out;
}

/// First element-wise difference between two verdict lists, for diagnostics.
std::string firstDifference(const std::vector<std::string>& lhs,
                            const std::vector<std::string>& rhs) {
  const std::size_t n = std::min(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (lhs[i] != rhs[i]) {
      return "at index " + std::to_string(i) + ": '" + lhs[i] + "' vs '" +
             rhs[i] + "'";
    }
  }
  return "sizes " + std::to_string(lhs.size()) + " vs " +
         std::to_string(rhs.size()) + " (lhs: " + summarize(lhs) +
         " | rhs: " + summarize(rhs) + ")";
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.index(i)]);
  }
}

bool isDeployFault(FaultInjection::Kind kind) {
  return kind == FaultInjection::Kind::kStageCommitFailure ||
         kind == FaultInjection::Kind::kStageValidationTimeout;
}

class Checker {
 public:
  Checker(const Scenario& scenario, InvariantMask selected)
      : scenario_(scenario), selected_(selected) {}

  CheckOutcome run() {
    const auto start = std::chrono::steady_clock::now();
    checkBaseSimulation();
    if (want(Invariant::kInputHolds)) {
      guarded(Invariant::kInputHolds, [&] { checkInputHolds(); });
    }
    obtainPatch();
    checkPatchInvariants();
    out_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::move(out_);
  }

 private:
  bool want(Invariant inv) const { return (selected_ & mask(inv)) != 0; }

  void fail(Invariant inv, std::string category, std::string detail) {
    out_.failures.push_back({inv, std::move(category), std::move(detail)});
  }

  /// Evaluates one invariant body; an escaping exception is itself a
  /// violation (the engines must not throw on inputs synthesis accepted).
  template <typename Fn>
  void guarded(Invariant inv, Fn&& body) {
    out_.checked |= mask(inv);
    try {
      body();
    } catch (const std::exception& e) {
      fail(inv, "exception", e.what());
    } catch (...) {
      fail(inv, "exception", "non-standard exception");
    }
  }

  void skip(Invariant inv) {
    if (want(inv)) out_.skipped |= mask(inv);
  }

  // ---- base-tree invariants (no synthesis required) ----

  void checkBaseSimulation() {
    const Simulator serial(scenario_.tree);

    if (want(Invariant::kSimDifferential)) {
      guarded(Invariant::kSimDifferential, [&] {
        SimulationEngine engine(scenario_.tree, 2);
        const auto serialViolations =
            policyStrings(serial.violations(scenario_.policies));
        const auto engineViolations =
            policyStrings(engine.violations(scenario_.policies));
        if (serialViolations != engineViolations) {
          fail(Invariant::kSimDifferential, "violations",
               "base tree: " +
                   firstDifference(serialViolations, engineViolations));
          return;
        }
        const auto serialInferred =
            policyStrings(serial.inferReachabilityPolicies());
        const auto engineInferred =
            policyStrings(engine.inferReachabilityPolicies());
        if (serialInferred != engineInferred) {
          fail(Invariant::kSimDifferential, "inference",
               "base tree: " + firstDifference(serialInferred, engineInferred));
        }
      });
    }

    if (want(Invariant::kPolicyOrder)) {
      guarded(Invariant::kPolicyOrder, [&] {
        Rng rng(scenario_.seed ^ 0x9E3779B97F4A7C15ULL);
        PolicySet permuted = scenario_.policies;
        shuffle(permuted, rng);
        const auto original =
            sortedPolicyStrings(serial.violations(scenario_.policies));
        const auto reordered = sortedPolicyStrings(serial.violations(permuted));
        if (original != reordered) {
          fail(Invariant::kPolicyOrder, "serial",
               firstDifference(original, reordered));
          return;
        }
        SimulationEngine engine(scenario_.tree, 2);
        const auto engineReordered =
            sortedPolicyStrings(engine.violations(permuted));
        if (original != engineReordered) {
          fail(Invariant::kPolicyOrder, "engine",
               firstDifference(original, engineReordered));
        }
      });
    }

    if (want(Invariant::kRouterOrder)) {
      guarded(Invariant::kRouterOrder, [&] {
        Rng rng(scenario_.seed ^ 0xD1B54A32D192ED03ULL);
        const auto& children = scenario_.tree.root().children();
        std::vector<std::size_t> order(children.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        shuffle(order, rng);
        ConfigTree permutedTree;
        for (std::size_t index : order) {
          permutedTree.root().addClone(*children[index]);
        }
        if (printNetworkConfig(permutedTree) !=
            printNetworkConfig(scenario_.tree)) {
          fail(Invariant::kRouterOrder, "printer",
               "printed configuration depends on router declaration order");
          return;
        }
        const auto original = policyStrings(serial.violations(scenario_.policies));
        const Simulator permutedSerial(permutedTree);
        const auto permuted =
            policyStrings(permutedSerial.violations(scenario_.policies));
        if (original != permuted) {
          fail(Invariant::kRouterOrder, "serial",
               firstDifference(original, permuted));
          return;
        }
        SimulationEngine permutedEngine(permutedTree, 2);
        const auto permutedByEngine =
            policyStrings(permutedEngine.violations(scenario_.policies));
        if (original != permutedByEngine) {
          fail(Invariant::kRouterOrder, "engine",
               firstDifference(original, permutedByEngine));
        }
      });
    }
  }

  /// Solves every group step 0 would answer on the MaxSMT path, partitioned
  /// as synthesize() partitions it: the solver must prove the empty patch
  /// optimal where the serial oracle says the group's policies hold.
  void checkInputHolds() {
    const AedOptions options = scenario_.options();
    const std::vector<Objective> objectives = objectivesMinDevices();
    if (!emptyPatchIsOptimal(objectives, options)) return;
    std::vector<PolicySet> groups;
    if (options.perDestination) {
      for (auto& [dst, set] : groupByDestination(scenario_.policies)) {
        groups.push_back(std::move(set));
      }
    } else if (!scenario_.policies.empty()) {
      groups.push_back(scenario_.policies);
    }
    const bool destinationScoped = groups.size() > 1;
    const Simulator serial(scenario_.tree);
    const Topology topo = Topology::fromConfigs(scenario_.tree);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const bool unknownInjected =
          scenario_.fault.kind == FaultInjection::Kind::kUnknown &&
          scenario_.fault.subproblem >= 0 &&
          static_cast<std::size_t>(scenario_.fault.subproblem) == i;
      if (unknownInjected || !serial.violations(groups[i]).empty()) continue;
      const std::string where =
          "group " + std::to_string(i) + " (" +
          groups[i].front().cls.dst.str() + "): ";
      const SubResult solved =
          solveSubproblem(scenario_.tree, topo, groups[i], destinationScoped,
                          objectives, options, {}, Deadline::unlimited());
      if (solved.outcome != SubOutcome::kOk ||
          solved.rung != SolveRung::kFull) {
        fail(Invariant::kInputHolds, "outcome",
             where + "the MaxSMT path answered " +
                 subOutcomeName(solved.outcome) + " at rung " +
                 solveRungName(solved.rung) + " (" + solved.detail + ")");
        continue;
      }
      if (!solved.patch.empty() || !solved.activeDeltas.empty()) {
        fail(Invariant::kInputHolds, "non-empty",
             where + "the MaxSMT path activated " +
                 summarize(solved.activeDeltas));
        continue;
      }
      const SubResult step0 =
          inputHoldsSubproblem(scenario_.tree, topo, groups[i],
                               destinationScoped, objectives, options);
      if (!solved.violated.empty() || solved.satisfied != step0.satisfied) {
        fail(Invariant::kInputHolds, "labels",
             where + "satisfied " + summarize(solved.satisfied) +
                 ", violated " + summarize(solved.violated) +
                 "; step 0 reports " + summarize(step0.satisfied));
      }
    }
  }

  // ---- patch acquisition (explicit, or one synthesis run) ----

  bool needsPatch() const {
    return want(Invariant::kSynthSound) || want(Invariant::kJournalRollback) ||
           want(Invariant::kStagedVsOneShot) ||
           want(Invariant::kIncrementalEquiv) ||
           want(Invariant::kResynthNoOp) || want(Invariant::kSimDifferential) ||
           want(Invariant::kWorkersEquiv);
  }

  void obtainPatch() {
    if (!needsPatch()) return;

    if (scenario_.patch.has_value()) {
      patch_ = *scenario_.patch;
      out_.synthesized = true;
      out_.patchEdits = patch_->size();
      // An embedded patch that no longer applies is still exercised by the
      // rollback invariant; the others are skipped below via !updated_.
      try {
        updated_ = patch_->applied(scenario_.tree);
      } catch (const AedError& e) {
        out_.note = "embedded patch inapplicable: " + std::string(e.what());
      }
      return;
    }

    runOptions_ = scenario_.options();
    if (scenario_.fault.kind != FaultInjection::Kind::kNone &&
        !isDeployFault(scenario_.fault.kind)) {
      runOptions_.faultInjection = scenario_.fault;
    }
    AedResult result =
        synthesize(scenario_.tree, scenario_.policies, {}, runOptions_);
    if (result.success && !result.degraded) {
      patch_ = std::move(result.patch);
      updated_ = std::move(result.updated);
      out_.synthesized = true;
      out_.patchEdits = patch_->size();
      return;
    }
    if (!result.success && result.errorCode == ErrorCode::kUnsat) {
      out_.note = "unsat";
      unsat_ = true;
      return;
    }
    if (result.degraded) {
      out_.note = "degraded";
      return;
    }
    out_.note =
        "synthesis failed [" + std::string(errorCodeName(result.errorCode)) +
        "]: " + result.error;
    if (want(Invariant::kSynthSound)) {
      out_.checked |= mask(Invariant::kSynthSound);
      fail(Invariant::kSynthSound, "synthesis", out_.note);
    }
  }

  // ---- patch-dependent invariants ----

  void checkPatchInvariants() {
    if (want(Invariant::kWorkersEquiv)) {
      // Needs the run's own synthesis: a clean patch or an unsat verdict.
      if (!scenario_.patch && (unsat_ || updated_.has_value())) {
        guarded(Invariant::kWorkersEquiv, [&] { checkWorkersEquiv(); });
      } else {
        skip(Invariant::kWorkersEquiv);
      }
    }

    if (want(Invariant::kIncrementalEquiv) && unsat_ && !scenario_.patch) {
      // A re-solve without the injected fault must agree the policies
      // conflict.
      guarded(Invariant::kIncrementalEquiv, [&] {
        const AedResult result = synthesize(
            scenario_.tree, scenario_.policies, {}, scenario_.options());
        if (result.success || result.errorCode != ErrorCode::kUnsat) {
          fail(Invariant::kIncrementalEquiv, "unsat-divergence",
               "the run reported unsat but the re-solve without the "
               "injected fault returned [" +
                   std::string(errorCodeName(result.errorCode)) + "] " +
                   result.error);
        }
      });
    }

    if (!patch_.has_value()) {
      skip(Invariant::kJournalRollback);
      skip(Invariant::kStagedVsOneShot);
      skip(Invariant::kSynthSound);
      skip(Invariant::kResynthNoOp);
      if (!unsat_) skip(Invariant::kIncrementalEquiv);
      return;
    }
    const Patch& patch = *patch_;

    if (want(Invariant::kJournalRollback)) {
      guarded(Invariant::kJournalRollback, [&] { checkJournalRollback(patch); });
    }

    if (!updated_.has_value()) {
      skip(Invariant::kStagedVsOneShot);
      skip(Invariant::kSynthSound);
      skip(Invariant::kResynthNoOp);
      skip(Invariant::kIncrementalEquiv);
      return;
    }
    const ConfigTree& updated = *updated_;

    if (want(Invariant::kSynthSound)) {
      guarded(Invariant::kSynthSound, [&] {
        const Simulator after(updated);
        const PolicySet violated = after.violations(scenario_.policies);
        if (!violated.empty()) {
          fail(Invariant::kSynthSound, "violations",
               std::to_string(violated.size()) +
                   " policies violated on the patched network: " +
                   summarize(policyStrings(violated)));
        }
      });
    }

    if (want(Invariant::kSimDifferential)) {
      guarded(Invariant::kSimDifferential, [&] {
        const Simulator serial(updated);
        SimulationEngine engine(updated, 2);
        const auto serialViolations =
            policyStrings(serial.violations(scenario_.policies));
        const auto engineViolations =
            policyStrings(engine.violations(scenario_.policies));
        if (serialViolations != engineViolations) {
          fail(Invariant::kSimDifferential, "violations",
               "patched tree: " +
                   firstDifference(serialViolations, engineViolations));
        }
      });
    }

    if (want(Invariant::kStagedVsOneShot)) {
      guarded(Invariant::kStagedVsOneShot, [&] { checkStagedDeployment(patch); });
    }

    if (want(Invariant::kResynthNoOp)) {
      guarded(Invariant::kResynthNoOp, [&] {
        const AedResult again =
            synthesize(updated, scenario_.policies, {}, scenario_.options());
        if (!again.success) {
          fail(Invariant::kResynthNoOp, "resynth-failed",
               "re-synthesis on the patched network failed [" +
                   std::string(errorCodeName(again.errorCode)) +
                   "]: " + again.error);
          return;
        }
        if (!again.patch.empty() &&
            printNetworkConfig(again.updated) != printNetworkConfig(updated)) {
          fail(Invariant::kResynthNoOp, "non-noop",
               "re-synthesis on the patched network produced a non-no-op "
               "patch of " +
                   std::to_string(again.patch.size()) + " edits: " +
                   again.patch.describe());
        }
      });
    }

    if (want(Invariant::kIncrementalEquiv) && !scenario_.patch) {
      guarded(Invariant::kIncrementalEquiv, [&] {
        const AedResult result = synthesize(
            scenario_.tree, scenario_.policies, {}, scenario_.options());
        if (!result.success) {
          fail(Invariant::kIncrementalEquiv, "fresh-failed",
               "the re-solve without the injected fault failed where the "
               "run succeeded [" +
                   std::string(errorCodeName(result.errorCode)) +
                   "]: " + result.error);
          return;
        }
        const Simulator after(result.updated);
        const PolicySet violated = after.violations(scenario_.policies);
        if (!violated.empty()) {
          fail(Invariant::kIncrementalEquiv, "violations",
               "the re-solve's result violates " +
                   std::to_string(violated.size()) + " policies: " +
                   summarize(policyStrings(violated)));
        }
      });
    } else if (want(Invariant::kIncrementalEquiv) && scenario_.patch) {
      skip(Invariant::kIncrementalEquiv);
    }
  }

  /// Re-runs the scenario's synthesis with one worker: the verdict, the
  /// patch, and what it changes must not depend on the thread pool.
  void checkWorkersEquiv() {
    AedOptions options = runOptions_;
    options.workers = 1;
    const AedResult serial =
        synthesize(scenario_.tree, scenario_.policies, {}, options);
    const bool agrees = unsat_ ? serial.errorCode == ErrorCode::kUnsat
                               : serial.success && !serial.degraded;
    if (!agrees) {
      fail(Invariant::kWorkersEquiv, "outcome",
           std::string("the run ") + (unsat_ ? "was unsat" : "succeeded") +
               " but the 1-worker run returned [" +
               errorCodeName(serial.errorCode) + "] " + serial.error);
      return;
    }
    if (unsat_) return;
    const std::vector<std::string> parallelEdits = editStrings(*patch_);
    const std::vector<std::string> serialEdits = editStrings(serial.patch);
    if (parallelEdits != serialEdits) {
      fail(Invariant::kWorkersEquiv, "patch",
           "patches differ " + firstDifference(parallelEdits, serialEdits));
      return;
    }
    const DiffStats parallel = diffNetworks(scenario_.tree, *updated_);
    const DiffStats single = diffNetworks(scenario_.tree, serial.updated);
    if (parallel.devicesChanged != single.devicesChanged ||
        parallel.linesChanged() != single.linesChanged()) {
      fail(Invariant::kWorkersEquiv, "diff",
           "devices/lines changed " + std::to_string(parallel.devicesChanged) +
               "/" + std::to_string(parallel.linesChanged()) + " vs " +
               std::to_string(single.devicesChanged) + "/" +
               std::to_string(single.linesChanged()) + " with 1 worker");
    }
  }

  void checkJournalRollback(const Patch& patch) {
    const std::string preText = printNetworkConfig(scenario_.tree);

    // Full apply, then an explicit rollback: the round trip must be
    // bit-identical. (If the patch cannot apply at all, strong exception
    // safety must already have restored the tree.)
    {
      ConfigTree work = scenario_.tree.clone();
      ApplyJournal journal;
      try {
        patch.applyJournaled(work, journal);
        journal.rollback();
      } catch (const AedError&) {
        // applyJournaled rolled back before rethrowing.
      }
      if (printNetworkConfig(work) != preText) {
        fail(Invariant::kJournalRollback, "round-trip",
             "apply + rollback drifted from the pre-apply tree");
        return;
      }
    }

    // Abort at every edit index: the RAII journal must restore the exact
    // pre-apply tree no matter where the apply stops.
    for (std::size_t k = 0; k < patch.size(); ++k) {
      ConfigTree work = scenario_.tree.clone();
      bool aborted = false;
      try {
        ApplyJournal journal;
        patch.applyJournaled(work, journal,
                             [&](std::size_t index, const Edit&) {
                               if (index == k) {
                                 throw AedError(ErrorCode::kApplyFailed,
                                                "aed_check: injected abort at "
                                                "edit " +
                                                    std::to_string(k));
                               }
                             });
      } catch (const AedError&) {
        aborted = true;
      }
      if (!aborted) {
        fail(Invariant::kJournalRollback, "no-abort",
             "injected abort at edit " + std::to_string(k) +
                 " did not propagate");
        return;
      }
      if (printNetworkConfig(work) != preText) {
        fail(Invariant::kJournalRollback, "rollback",
             "abort at edit " + std::to_string(k) + "/" +
                 std::to_string(patch.size()) +
                 " left the tree different from the pre-apply state");
        return;
      }
    }
  }

  void checkStagedDeployment(const Patch& patch) {
    DeployOptions options;
    options.workers = 2;
    const ConfigTree merged = patch.applied(scenario_.tree);
    DeploymentPlan plan =
        planStagedRollout(scenario_.tree, patch, scenario_.policies, options);

    DeployFaultInjection fault;
    if (scenario_.fault.kind == FaultInjection::Kind::kStageCommitFailure) {
      fault.kind = DeployFaultInjection::Kind::kStageCommitFailure;
      fault.stage = scenario_.fault.applyStage;
      fault.atEdit = scenario_.fault.applyEdit;
    } else if (scenario_.fault.kind ==
               FaultInjection::Kind::kStageValidationTimeout) {
      fault.kind = DeployFaultInjection::Kind::kValidationTimeout;
      fault.stage = scenario_.fault.applyStage;
    }

    ConfigTree work = scenario_.tree.clone();
    const bool committed = executeDeployment(work, plan, options, fault);
    if (!committed) {
      std::ostringstream detail;
      detail << "staged deployment aborted after " << plan.committedStages
             << "/" << plan.stages.size() << " stages [";
      detail << errorCodeName(plan.code) << "]: " << plan.error;
      fail(Invariant::kStagedVsOneShot, "aborted", detail.str());
      return;
    }
    if (printNetworkConfig(work) != printNetworkConfig(merged)) {
      fail(Invariant::kStagedVsOneShot, "mismatch",
           "clean staged execution and one-shot merged apply produced "
           "different networks");
    }
  }

  const Scenario& scenario_;
  InvariantMask selected_;
  CheckOutcome out_;
  std::optional<Patch> patch_;
  std::optional<ConfigTree> updated_;
  AedOptions runOptions_;  // options of the run that produced patch_
  bool unsat_ = false;
};

}  // namespace

const char* invariantName(Invariant inv) {
  for (const InvariantInfo& info : kInvariantTable) {
    if (info.invariant == inv) return info.name;
  }
  return "?";
}

std::optional<Invariant> invariantFromName(std::string_view name) {
  for (const InvariantInfo& info : kInvariantTable) {
    if (name == info.name) return info.invariant;
  }
  return std::nullopt;
}

const std::vector<Invariant>& allInvariants() {
  static const std::vector<Invariant> all = [] {
    std::vector<Invariant> out;
    for (const InvariantInfo& info : kInvariantTable) {
      out.push_back(info.invariant);
    }
    return out;
  }();
  return all;
}

CheckOutcome checkScenario(const Scenario& scenario, InvariantMask selected) {
  return Checker(scenario, selected).run();
}

}  // namespace aed::check
