#include "smt/session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

/// Accumulates a z3::stats block into SolverStats by key substring — Z3's
/// stat names vary across engines and versions ("conflicts",
/// "sat conflicts", "restarts", "max memory", ...), so exact-name matching
/// would silently capture nothing on half of them.
void accumulateZ3Stats(SolverStats& out, const z3::stats& zstats) {
  try {
    for (unsigned i = 0; i < zstats.size(); ++i) {
      const std::string key = zstats.key(i);
      const double value = zstats.is_uint(i)
                               ? static_cast<double>(zstats.uint_value(i))
                               : zstats.double_value(i);
      if (key.find("conflict") != std::string::npos) {
        out.conflicts += static_cast<std::uint64_t>(value);
      } else if (key.find("decision") != std::string::npos) {
        out.decisions += static_cast<std::uint64_t>(value);
      } else if (key.find("restart") != std::string::npos) {
        out.restarts += static_cast<std::uint64_t>(value);
      } else if (key.find("memory") != std::string::npos) {
        out.maxMemoryMb = std::max(out.maxMemoryMb, value);
      }
    }
  } catch (const z3::exception&) {
    // Introspection is best-effort; never let it fail a solve.
  }
}

template <typename Solver>
void captureCheck(SolverStats& out, Solver& solver) {
  ++out.checks;
  try {
    accumulateZ3Stats(out, solver.statistics());
  } catch (const z3::exception&) {
  }
}

}  // namespace

z3::expr SmtSession::boolVar(const std::string& name) {
  const auto it = vars_.find(name);
  if (it != vars_.end()) return it->second;
  z3::expr var = ctx_.bool_const(name.c_str());
  vars_.emplace(name, var);
  return var;
}

z3::expr SmtSession::intVar(const std::string& name) {
  const auto it = vars_.find(name);
  if (it != vars_.end()) return it->second;
  z3::expr var = ctx_.int_const(name.c_str());
  vars_.emplace(name, var);
  return var;
}

bool SmtSession::hasVar(const std::string& name) const {
  return vars_.count(name) != 0;
}

z3::expr SmtSession::var(const std::string& name) const {
  const auto it = vars_.find(name);
  require(it != vars_.end(), "unknown SMT variable: " + name);
  return it->second;
}

z3::expr SmtSession::freshBool(const std::string& stem) {
  return boolVar(stem + "!" + std::to_string(freshCounter_++));
}

std::size_t SmtSession::addSoft(const z3::expr& constraint, unsigned weight,
                                const std::string& label, SoftKind kind) {
  opt_.add_soft(constraint, weight);
  softExprs_.push_back(constraint);
  softInfos_.push_back(SoftInfo{label, weight, kind});
  return softInfos_.size() - 1;
}

void SmtSession::randomizePhase(unsigned seed) {
  try {
    z3::params params(ctx_);
    params.set("smt.phase_selection", 5u);  // random phase
    params.set("smt.random_seed", seed);
    params.set("sat.phase", ctx_.str_symbol("random"));
    params.set("sat.random_seed", seed);
    opt_.set(params);
  } catch (const z3::exception&) {
    // Parameter names vary across Z3 versions; best effort only.
  }
}

template <typename Solver>
bool SmtSession::applyBudget(Solver& solver) {
  if (deadline_.isUnlimited()) return true;
  const std::uint64_t remaining = deadline_.remainingMillis();
  if (remaining == 0) return false;
  const unsigned ms = static_cast<unsigned>(std::min<std::uint64_t>(
      remaining, std::numeric_limits<unsigned>::max()));
  try {
    z3::params params(ctx_);
    params.set("timeout", ms);
    solver.set(params);
  } catch (const z3::exception&) {
    // If the timeout parameter is rejected, the deadline is still enforced
    // between ladder rungs; the individual query just cannot be interrupted.
  }
  return true;
}

void SmtSession::reportObjectives(Result& result) const {
  for (std::size_t i = 0; i < softExprs_.size(); ++i) {
    if (model_->eval(softExprs_[i], true).is_true()) {
      result.satisfiedObjectives.push_back(softInfos_[i].label);
    } else {
      result.violatedObjectives.push_back(softInfos_[i].label);
    }
  }
}

void SmtSession::acceptModel(Result& result, z3::model model, SolveRung rung,
                             std::string reason) {
  model_ = std::move(model);
  result.sat = true;
  result.status = "sat";
  result.rung = rung;
  result.rungReason = std::move(reason);
  reportObjectives(result);
}

z3::solver SmtSession::hardOnlySolver() {
  z3::solver plain(ctx_);
  for (const z3::expr& assertion : opt_.assertions()) plain.add(assertion);
  return plain;
}

SmtSession::Result SmtSession::check() {
  Span span("smt.check");
  Result result;
  // Encoding sizes describe what this check is being asked to solve; effort
  // counters accumulate as the rungs below actually run the solver.
  result.stats.vars = vars_.size();
  try {
    result.stats.assertions = opt_.assertions().size() + softExprs_.size();
  } catch (const z3::exception&) {
  }

  // ---- rung 1: full MaxSMT ------------------------------------------------
  z3::check_result status = z3::unknown;
  const bool budgetLeft = applyBudget(opt_);
  if (injectUnknown_ > 0) {
    --injectUnknown_;
    logWarn() << "fault injection: forcing an unknown MaxSMT verdict";
  } else if (budgetLeft) {
    status = opt_.check();
    captureCheck(result.stats, opt_);
  }

  // Z3 4.8.x's default MaxSAT engine (maxres) can report bogus UNSAT on
  // hard constraints that mix booleans with integer arithmetic (observed on
  // this code base's routing encodings; a plain solver accepts the same
  // assertions). Defend against it: cross-check any UNSAT with a plain
  // solver over the hard assertions; on divergence retry with the wmax
  // engine, and as a last resort accept the plain solver's model (hard
  // constraints satisfied, soft constraints unoptimized).
  if (status == z3::unsat) {
    z3::solver plain = hardOnlySolver();
    applyBudget(plain);
    const z3::check_result crossCheck = plain.check();
    captureCheck(result.stats, plain);
    if (crossCheck == z3::sat) {
      logWarn() << "optimize reported unsat but the hard constraints are "
                   "satisfiable; retrying with the wmax engine";
      try {
        z3::params params(ctx_);
        params.set("maxsat_engine", ctx_.str_symbol("wmax"));
        opt_.set(params);
        applyBudget(opt_);
        status = opt_.check();
        captureCheck(result.stats, opt_);
      } catch (const z3::exception&) {
        status = z3::unknown;
      }
      if (status != z3::sat) {
        logWarn() << "wmax retry failed too; using the unoptimized model";
        acceptModel(result, plain.get_model(), SolveRung::kHardOnly,
                    "MaxSMT engine reported a bogus unsat (hard constraints "
                    "are satisfiable) and the wmax retry failed; kept the "
                    "plain-SAT model, soft objectives unoptimized");
        return result;
      }
    }
  }

  if (status == z3::sat) {
    acceptModel(result, opt_.get_model(), SolveRung::kFull,
                "full MaxSMT optimum over user + minimality softs");
    return result;
  }
  if (status == z3::unsat) {
    result.status = "unsat";
    result.code = ErrorCode::kUnsat;
    result.rung = SolveRung::kUnsat;
    result.rungReason = "hard constraints unsatisfiable (cross-checked "
                        "with a plain SAT solver)";
    return result;
  }

  // ---- rung 2: drop the minimality softs, keep user objectives ------------
  const bool hasMinimality =
      std::any_of(softInfos_.begin(), softInfos_.end(), [](const SoftInfo& s) {
        return s.kind == SoftKind::kMinimality;
      });
  const bool hasUser =
      std::any_of(softInfos_.begin(), softInfos_.end(), [](const SoftInfo& s) {
        return s.kind == SoftKind::kUser;
      });
  if (hasMinimality && hasUser && !deadline_.expired()) {
    logWarn() << "MaxSMT timed out/unknown; retrying without minimality softs";
    try {
      z3::optimize reduced(ctx_);
      for (const z3::expr& assertion : opt_.assertions()) {
        reduced.add(assertion);
      }
      for (std::size_t i = 0; i < softExprs_.size(); ++i) {
        if (softInfos_[i].kind == SoftKind::kUser) {
          reduced.add_soft(softExprs_[i], softInfos_[i].weight);
        }
      }
      if (applyBudget(reduced)) {
        const z3::check_result reducedStatus = reduced.check();
        captureCheck(result.stats, reduced);
        if (reducedStatus == z3::sat) {
          acceptModel(result, reduced.get_model(), SolveRung::kNoMinimality,
                      "full MaxSMT timed out/unknown; re-solved with "
                      "minimality softs dropped (user objectives kept)");
          return result;
        }
      }
    } catch (const z3::exception& e) {
      logWarn() << "reduced MaxSMT retry failed: " << e.msg();
    }
  }

  // ---- rung 3: hard constraints only (plain SAT) --------------------------
  if (!deadline_.expired()) {
    logWarn() << "falling back to hard-constraints-only SAT";
    try {
      z3::solver plain = hardOnlySolver();
      if (applyBudget(plain)) {
        const z3::check_result plainStatus = plain.check();
        captureCheck(result.stats, plain);
        if (plainStatus == z3::sat) {
          acceptModel(result, plain.get_model(), SolveRung::kHardOnly,
                      "both MaxSMT rungs timed out/unknown; plain SAT over "
                      "the hard constraints only (policy-compliant, nothing "
                      "optimized)");
          return result;
        }
        if (plainStatus == z3::unsat) {
          result.status = "unsat";
          result.code = ErrorCode::kUnsat;
          result.rung = SolveRung::kUnsat;
          result.rungReason =
              "hard constraints unsatisfiable (found at the plain-SAT rung)";
          return result;
        }
      }
    } catch (const z3::exception& e) {
      logWarn() << "hard-constraints-only fallback failed: " << e.msg();
    }
  }

  // ---- rung 4: give up -----------------------------------------------------
  const bool expired = deadline_.expired();
  result.status = expired ? "timeout" : "unknown";
  result.code = expired ? ErrorCode::kTimeout : ErrorCode::kSolverUnknown;
  result.rung = SolveRung::kGaveUp;
  result.rungReason =
      expired ? "wall-clock deadline expired before any ladder rung answered"
              : "every ladder rung returned unknown";
  return result;
}

bool SmtSession::evalBool(const z3::expr& expr) const {
  require(model_.has_value(), "evalBool before a sat check()");
  return model_->eval(expr, true).is_true();
}

int SmtSession::evalInt(const z3::expr& expr) const {
  require(model_.has_value(), "evalInt before a sat check()");
  return model_->eval(expr, true).get_numeral_int();
}

std::string mangle(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += '_';
    std::string part = parts[i];
    std::replace(part.begin(), part.end(), '/', '.');
    std::replace(part.begin(), part.end(), ' ', '.');
    out += part;
  }
  return out;
}

}  // namespace aed
