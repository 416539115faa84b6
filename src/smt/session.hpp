// Thin wrapper over the Z3 C++ API.
//
// One SmtSession owns one z3::context and one z3::optimize (MaxSMT) solver.
// Z3 contexts are not thread-safe, so the parallel per-destination engine
// (§8) creates one session per task. The session also keeps a registry of
// named variables so that the sketch encoder and the objective translator
// can refer to the same delta variables by name, and a registry of soft
// constraints so callers can report which management objectives were
// satisfied by the chosen model.
//
// Constraints may be added and check() re-run any number of times; each
// check re-runs the one z3::optimize instance. synthesize() builds one
// session per MaxSMT solve (core/subsolver.hpp): a repair round re-encodes
// into a new session with the whole blocked-delta list rather than
// extending a live one, so the session is freed on the worker that solved
// it. A group whose policies already hold on the input tree is answered by
// the solve path's step 0 and builds no session at all.
//
// Resilience: a session can be given a wall-clock Deadline (wired to Z3's
// `timeout` parameter), and check() always falls back through a degradation
// ladder when the full MaxSMT query times out or goes unknown:
//   1. full MaxSMT (user objectives + minimality softs)  → SolveRung::kFull
//   2. MaxSMT with the minimality softs dropped          → kNoMinimality
//   3. plain SAT over the hard constraints only          → kHardOnly
//   4. give up: timed out (deadline expired) or unknown
// Rungs 2 and 3 (and the bogus-unsat cross-check) build a throwaway solver
// from opt_.assertions() when they are reached; they are rare, so no second
// solver is kept alive for them.
// Every rung still satisfies the hard policy constraints, so a
// policy-compliant (if less manageable) patch is returned whenever Z3 can
// decide satisfiability at all within the budget.
#pragma once

#include <z3++.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "smt/solver_stats.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace aed {

class SmtSession {
 public:
  SmtSession() : opt_(ctx_) {}

  SmtSession(const SmtSession&) = delete;
  SmtSession& operator=(const SmtSession&) = delete;

  // ---- variable factories -------------------------------------------------

  /// Creates (or returns the previously created) named boolean variable.
  z3::expr boolVar(const std::string& name);
  /// Creates (or returns the previously created) named integer variable.
  z3::expr intVar(const std::string& name);
  /// True if a variable with this name was created.
  bool hasVar(const std::string& name) const;
  /// Looks up a previously created variable; throws if unknown.
  z3::expr var(const std::string& name) const;

  /// Fresh anonymous boolean variable for encoder internals.
  z3::expr freshBool(const std::string& stem);

  // ---- constants ----------------------------------------------------------

  z3::expr boolVal(bool value) { return ctx_.bool_val(value); }
  z3::expr intVal(int value) { return ctx_.int_val(value); }

  // ---- constraints ----------------------------------------------------------

  /// Adds a hard constraint. Legal at any time, including between check()
  /// calls.
  void addHard(const z3::expr& constraint) { opt_.add(constraint); }

  /// Classification of a soft constraint for the degradation ladder: user
  /// objectives survive one rung longer than the internal per-delta
  /// minimality pressure.
  enum class SoftKind { kUser, kMinimality };

  /// Adds a weighted soft constraint labeled with an objective name.
  /// Returns the index of the registered soft constraint.
  std::size_t addSoft(const z3::expr& constraint, unsigned weight,
                      const std::string& label,
                      SoftKind kind = SoftKind::kUser);

  /// Randomizes the solver's decision phase. Used by the NetComplete-like
  /// clean-slate baseline: a synthesizer that does not anchor on the current
  /// configuration picks arbitrary values for unconstrained constructs;
  /// Z3's default false-bias would otherwise make the baseline look
  /// artificially incremental.
  void randomizePhase(unsigned seed);

  // ---- resilience ----------------------------------------------------------

  /// Caps all subsequent check() work at this wall-clock deadline (the
  /// remaining budget is passed to Z3 as its `timeout` parameter, re-read
  /// before each ladder rung). Unlimited by default.
  void setDeadline(const Deadline& deadline) { deadline_ = deadline; }

  /// Deterministic fault injection for tests: the next `count` full MaxSMT
  /// checks report "unknown" without calling Z3, forcing check() down the
  /// degradation ladder (which still runs for real).
  void injectUnknown(int count) { injectUnknown_ = count; }

  // ---- solving --------------------------------------------------------------

  struct Result {
    bool sat = false;
    /// Raw solver verdict: "sat", "unsat", "unknown", or "timeout". A solver
    /// that answers "unknown" must never be treated as a proof of
    /// unsatisfiability; callers distinguishing the two read this field.
    /// "timeout" means the wall-clock deadline expired before any rung of
    /// the ladder produced a verdict.
    std::string status = "unknown";
    /// Structured failure classification when !sat.
    ErrorCode code = ErrorCode::kNone;
    /// Labels of soft constraints satisfied / violated by the model.
    std::vector<std::string> satisfiedObjectives;
    std::vector<std::string> violatedObjectives;
    /// Which ladder rung produced this answer (kFull, kNoMinimality or
    /// kHardOnly when sat) and why, plus the Z3 effort counters summed
    /// across the rung attempts of this check() call (§12).
    SolveRung rung = SolveRung::kNone;
    std::string rungReason;
    SolverStats stats;
  };

  /// Runs the MaxSMT query, falling back through the degradation ladder.
  /// On sat, the model is retained for eval calls. Re-entrant: check() may
  /// be called again after adding further constraints; each call replaces
  /// the retained model and re-reads the deadline.
  Result check();

  /// Evaluates a boolean expression in the last model (model completion on).
  bool evalBool(const z3::expr& expr) const;
  /// Evaluates an integer expression in the last model.
  int evalInt(const z3::expr& expr) const;

  /// Statistics of the last check (for benches).
  std::size_t numVars() const { return vars_.size(); }

 private:
  struct SoftInfo {
    std::string label;
    unsigned weight = 1;
    SoftKind kind = SoftKind::kUser;
  };

  /// Applies the remaining budget as a Z3 timeout; false if already expired.
  template <typename Solver>
  bool applyBudget(Solver& solver);
  /// Fills satisfied/violated objective labels from the current model.
  void reportObjectives(Result& result) const;
  /// Records a sat answer: retains `model` and fills the verdict fields.
  void acceptModel(Result& result, z3::model model, SolveRung rung,
                   std::string reason);
  /// A plain SAT solver over the hard assertions, built on demand by the
  /// rare ladder paths that need one.
  z3::solver hardOnlySolver();

  z3::context ctx_;
  z3::optimize opt_;
  std::map<std::string, z3::expr> vars_;
  std::vector<z3::expr> softExprs_;
  std::vector<SoftInfo> softInfos_;
  std::optional<z3::model> model_;
  Deadline deadline_;
  int injectUnknown_ = 0;
  int freshCounter_ = 0;
};

/// Mangles a list of name parts into a deterministic variable name, e.g.
/// mangle({"rm", "B", "bgp", "Adj", "A"}) == "rm_B_bgp_Adj_A". Characters
/// that are unfriendly to debugging output ('/', ' ') are replaced.
std::string mangle(const std::vector<std::string>& parts);

}  // namespace aed
