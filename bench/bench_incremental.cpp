// Repair re-solve on a repair-heavy scenario.
//
// The repair loop is AED's counterexample-guided core: when a candidate
// patch fails simulator validation, the offending delta combination is
// blocked and the affected subproblems re-solved. Each re-solve builds a
// fresh sketch, encoding and Z3 context against the whole blocked list
// (DESIGN.md §6). This bench reports the first-round vs repair-round phase
// split.
//
// A repair-heavy scenario is forced deterministically: two rack subnets'
// originations are withdrawn (each restorable several distinct ways, so
// blocking a candidate delta set leaves alternatives), and
// FaultInjection::kRejectValidation rejects the first N otherwise-passing
// verdicts, so N full blocking + re-solve rounds run for real. The bench
// asserts at least N repair rounds and a simulator-validated final patch.
//
// Counters:
//   repairRounds        — forced + organic repair rounds taken
//   firstRoundSeconds   — sketch+encode+solve+extract+simulate, round 0
//   repairSeconds       — same, summed over all repair rounds
//   repairSolveSeconds  — pure solver time within the repair rounds
//   repairEncodeSeconds — encoding time within the repair rounds (each
//                         round re-encodes against the whole blocked list)
//
// Run: ./build/bench/bench_incremental
//   (JSON for CI trend tracking: --benchmark_out=BENCH_incremental.json
//    --benchmark_out_format=json)

#include "common.hpp"

namespace {

using namespace aed;
using aedbench::dcPreset;
using aedbench::requireCorrect;

constexpr int kForcedRejections = 2;

struct Scenario {
  GeneratedNetwork net;
  PolicySet policies;
};

Scenario repairHeavyScenario(int routers) {
  DcParams params = dcPreset(routers, 29);
  params.blockedPairFraction = 0.0;
  Scenario scenario{generateDatacenter(params), {}};
  // The first call infers the healthy network's full policy set; the second
  // withdrawal only mutates the configuration further (its return value is
  // the already-broken network's policies, which we don't want).
  scenario.policies = makeWithdrawnSubnetUpdate(scenario.net, "rack0");
  makeWithdrawnSubnetUpdate(scenario.net, "rack1");
  return scenario;
}

AedOptions repairHeavyOptions() {
  AedOptions options;
  options.maxRepairIterations = kForcedRejections + 3;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = kForcedRejections;
  return options;
}

void setCounters(benchmark::State& state, const AedResult& r) {
  state.counters["repairRounds"] = static_cast<double>(r.stats.repairRounds);
  state.counters["firstRoundSeconds"] = r.stats.firstRound.total();
  state.counters["repairSeconds"] = r.stats.repair.total();
  state.counters["repairSolveSeconds"] = r.stats.repair.solveSeconds;
  state.counters["repairEncodeSeconds"] = r.stats.repair.encodeSeconds;
}

void repairHeavyCase(benchmark::State& state, int routers) {
  const Scenario scenario = repairHeavyScenario(routers);

  for (auto _ : state) {
    const AedResult r = synthesize(scenario.net.tree, scenario.policies, {},
                                   repairHeavyOptions());
    if (!r.success) return state.SkipWithError(r.error.c_str());
    if (r.stats.repairRounds < kForcedRejections) {
      return state.SkipWithError("scenario was not repair-heavy");
    }
    requireCorrect(r.updated, scenario.policies, state);
    setCounters(state, r);
  }
}

void registerCases() {
  std::vector<int> sizes = {4, 8};
  if (aedbench::fullScale()) sizes = {4, 8, 12, 16};
  for (int routers : sizes) {
    const std::string base = "Incremental/dc" + std::to_string(routers);
    benchmark::RegisterBenchmark(
        (base + "/incremental").c_str(),
        [routers](benchmark::State& state) { repairHeavyCase(state, routers); })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return aedbench::runMain(argc, argv, registerCases);
}
