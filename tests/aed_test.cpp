#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "core/subsolver.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "simulate/simulator.hpp"
#include "topology/topology.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

PolicySet figure1AllPolicies() {
  return {aed::testing::figure1P1(), aed::testing::figure1P2(),
          aed::testing::figure1P3()};
}

TEST(Aed, SolvesFigure1WithMinimalPatch) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  // The canonical fix is a single class-specific permit rule on B's packet
  // filter (§2: "P3 can be satisfied by updating the packet filter on B").
  const DiffStats stats = diffNetworks(tree, result.updated);
  EXPECT_EQ(stats.devicesChanged, 1);
  EXPECT_EQ(stats.linesChanged(), 1);
  EXPECT_EQ(stats.changedRouters, (std::set<std::string>{"B"}));
}

TEST(Aed, SequentialModeMatchesCorrectness) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  AedOptions options;
  options.perDestination = false;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  EXPECT_EQ(result.stats.subproblems, 1u);
}

TEST(Aed, UnsatisfiablePolicySetFails) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::reachability(cls("3.0.0.0/16", "2.0.0.0/16")),
      Policy::blocking(cls("3.0.0.0/16", "2.0.0.0/16"))};
  const AedResult result = synthesize(tree, policies);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("unsatisfiable"), std::string::npos);
}

TEST(Aed, EmptyPolicySetIsNoop) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const AedResult result = synthesize(tree, {});
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.patch.empty());
  EXPECT_EQ(diffNetworks(tree, result.updated).linesChanged(), 0);
}

TEST(Aed, NoModifyObjectiveSteersChanges) {
  // Block 2/16 -> 4/16. Fixable at B (egress side) or C; forbid touching B
  // and AED must pick another router.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {Policy::blocking(cls("2.0.0.0/16", "4.0.0.0/16")),
                              aed::testing::figure1P1(),
                              aed::testing::figure1P2()};
  const auto objectives =
      parseObjectives("NOMODIFY //Router[name=\"B\"]");
  const AedResult result = synthesize(tree, policies, objectives);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  const DiffStats stats = diffNetworks(tree, result.updated);
  EXPECT_EQ(stats.changedRouters.count("B"), 0u) << result.patch.describe();
  EXPECT_FALSE(result.satisfiedObjectives.empty());
}

TEST(Aed, ImpossibleObjectiveIsViolatedNotFatal) {
  // P3 requires changing B (the only filter on the only path). NOMODIFY B
  // cannot be satisfied; AED must still fix the policy and report the
  // objective as violated.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const auto objectives = parseObjectives("NOMODIFY //Router[name=\"B\"]");
  const AedResult result = synthesize(tree, policies, objectives);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
  ASSERT_EQ(result.violatedObjectives.size(), 1u);
  EXPECT_NE(result.violatedObjectives[0].find("NOMODIFY"),
            std::string::npos);
}

TEST(Aed, PreserveTemplatesKeepsClonesInSync) {
  DcParams params;
  params.racks = 4;
  params.aggs = 2;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 2, 42);
  PolicySet all = update.base;
  all.insert(all.end(), update.added.begin(), update.added.end());

  const AedResult result =
      synthesize(net.tree, all, objectivesPreserveTemplates());
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(all).empty());
  const TemplateGroups groups = computeTemplateGroups(net.tree);
  EXPECT_EQ(countTemplateViolations(groups, result.updated), 0)
      << result.patch.describe();
}

TEST(Aed, MinDevicesTouchesFewerThanTemplates) {
  DcParams params;
  params.racks = 4;
  params.aggs = 2;
  params.blockedPairFraction = 0.5;
  params.seed = 5;
  const GeneratedNetwork net = generateDatacenter(params);
  const PolicyUpdate update = makeReachabilityUpdate(net.tree, 2, 42);
  PolicySet all = update.base;
  all.insert(all.end(), update.added.begin(), update.added.end());

  const AedResult minDev = synthesize(net.tree, all, objectivesMinDevices());
  const AedResult templ =
      synthesize(net.tree, all, objectivesPreserveTemplates());
  ASSERT_TRUE(minDev.success) << minDev.error;
  ASSERT_TRUE(templ.success) << templ.error;
  EXPECT_LE(diffNetworks(net.tree, minDev.updated).devicesChanged,
            diffNetworks(net.tree, templ.updated).devicesChanged);
}

TEST(Aed, AvoidStaticRoutesObjective) {
  // Force a "no route" situation: rack0's adjacency to its only agg is
  // fixable via static routes or via BGP adjacency addition; the eliminate
  // objective must push AED towards BGP.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1AllPolicies();
  const AedResult result =
      synthesize(tree, policies, objectivesAvoidStaticRoutes());
  ASSERT_TRUE(result.success) << result.error;
  for (const Edit& edit : result.patch.edits()) {
    if (edit.op == Edit::Op::kAddNode &&
        edit.kind == NodeKind::kOrigination) {
      EXPECT_EQ(edit.attrs.count("nexthop"), 0u) << edit.describe();
    }
  }
}

TEST(Aed, WaypointPolicyEndToEnd) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::waypoint(cls("4.0.0.0/16", "2.0.0.0/16"), {"A"})};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.checkPolicy(policies[0]));
}

TEST(Aed, PathPreferencePolicyEndToEnd) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {Policy::pathPreference(
      cls("2.0.0.0/16", "4.0.0.0/16"), {"B", "C"}, {"B", "A", "C"})};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.checkPolicy(policies[0]));
}

TEST(Aed, IsolationPolicyEndToEnd) {
  // 2/16->1/16 currently shares C-A with 4/16->1/16; demand isolation.
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {
      Policy::isolation(cls("2.0.0.0/16", "1.0.0.0/16"),
                        cls("4.0.0.0/16", "1.0.0.0/16")),
      Policy::reachability(cls("2.0.0.0/16", "1.0.0.0/16")),
      Policy::reachability(cls("4.0.0.0/16", "1.0.0.0/16"))};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

TEST(MergePatches, DeduplicatesSharedScaffolding) {
  Patch a, b;
  const Edit filter{Edit::Op::kAddNode, "Router[name=C]",
                    NodeKind::kPacketFilter, {{"name", "pf_new"}}};
  a.add(filter);
  b.add(filter);
  const Patch merged = mergePatches({a, b});
  EXPECT_EQ(merged.size(), 1u);
}

TEST(MergePatches, RenumbersCollidingSeqs) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a, b;
  a.add(Edit{Edit::Op::kAddNode, target, NodeKind::kPacketFilterRule,
             {{"seq", "9"}, {"action", "permit"},
              {"srcPrefix", "1.0.0.0/16"}, {"dstPrefix", "2.0.0.0/16"}}});
  b.add(Edit{Edit::Op::kAddNode, target, NodeKind::kPacketFilterRule,
             {{"seq", "9"}, {"action", "permit"},
              {"srcPrefix", "3.0.0.0/16"}, {"dstPrefix", "4.0.0.0/16"}}});
  const Patch merged = mergePatches({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.edits()[0].attrs.at("seq"), "9");
  EXPECT_EQ(merged.edits()[1].attrs.at("seq"), "8");
}

TEST(Aed, StatsPopulated) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const AedResult result = synthesize(tree, figure1AllPolicies());
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.stats.totalSeconds, 0.0);
  EXPECT_GT(result.stats.maxSubproblemSeconds, 0.0);
  EXPECT_GE(result.stats.subproblems, 2u);  // two destination groups
  EXPECT_GT(result.stats.deltaCount, 0u);
}

// ---- step 0: groups whose policies already hold on the input ---------------

// In Figure 1, P1 and P2 (destination 1.0.0.0/16) hold on the input tree and
// P3 (2.0.0.0/16) does not; destination order makes 1.0.0.0/16 group 0.
const char* const kHoldingDestination = "1.0.0.0/16";

const SubproblemReport& reportFor(const AedResult& result,
                                  const std::string& destination) {
  for (const SubproblemReport& report : result.subproblems) {
    if (report.destination == destination) return report;
  }
  throw std::runtime_error("no subproblem for " + destination);
}

TEST(Aed, HoldingGroupSkipsTheSolver) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const std::vector<Objective> objectives = objectivesMinDevices();
  const AedResult result = synthesize(tree, figure1AllPolicies(), objectives);
  ASSERT_TRUE(result.success) << result.error;
  const SubproblemReport& holding = reportFor(result, kHoldingDestination);
  EXPECT_EQ(holding.outcome, SubOutcome::kOk);
  EXPECT_EQ(holding.rung, SolveRung::kFull);
  EXPECT_EQ(holding.rungReason, kInputHoldsReason);
  EXPECT_EQ(holding.solverStats.checks, 0u);
  const SubproblemReport& repaired = reportFor(result, "2.0.0.0/16");
  EXPECT_NE(repaired.rungReason, kInputHoldsReason);
  EXPECT_GE(repaired.solverStats.checks, 1u);

  // Step 0 answers exactly what the MaxSMT path proves for the same group:
  // the empty patch, every objective label satisfied, the same sketch.
  const Topology topo = Topology::fromConfigs(tree);
  const PolicySet group = {aed::testing::figure1P1(),
                           aed::testing::figure1P2()};
  const SubResult step0 =
      inputHoldsSubproblem(tree, topo, group, true, objectives, {});
  const SubResult solved = solveSubproblem(tree, topo, group, true, objectives,
                                           {}, {}, Deadline::unlimited());
  ASSERT_EQ(solved.outcome, SubOutcome::kOk) << solved.detail;
  EXPECT_GE(solved.solverStats.checks, 1u);
  EXPECT_EQ(step0.outcome, SubOutcome::kOk);
  EXPECT_EQ(step0.rung, SolveRung::kFull);
  EXPECT_EQ(solved.rung, SolveRung::kFull);
  EXPECT_TRUE(step0.patch.empty());
  EXPECT_TRUE(solved.patch.empty()) << solved.patch.describe();
  EXPECT_TRUE(step0.activeDeltas.empty());
  EXPECT_TRUE(solved.activeDeltas.empty());
  EXPECT_EQ(step0.solverStats.checks, 0u);
  EXPECT_EQ(step0.deltaCount, solved.deltaCount);
  EXPECT_GT(step0.deltaCount, 0u);
  EXPECT_FALSE(step0.satisfied.empty());
  EXPECT_EQ(step0.satisfied, solved.satisfied);
  EXPECT_TRUE(step0.violated.empty());
  EXPECT_TRUE(solved.violated.empty());
}

// Objectives the empty patch may violate keep the MaxSMT path: an EQUATE or
// ELIMINATE group is not proven by "every delta off".
TEST(Aed, EquateObjectiveReachesTheSolver) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const AedResult result = synthesize(tree, figure1AllPolicies(),
                                      objectivesPreserveTemplates());
  ASSERT_TRUE(result.success) << result.error;
  const SubproblemReport& holding = reportFor(result, kHoldingDestination);
  EXPECT_NE(holding.rungReason, kInputHoldsReason);
  EXPECT_GE(holding.solverStats.checks, 1u);
}

TEST(Aed, EliminateObjectiveReachesTheSolver) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const AedResult result = synthesize(tree, figure1AllPolicies(),
                                      objectivesAvoidStaticRoutes());
  ASSERT_TRUE(result.success) << result.error;
  const SubproblemReport& holding = reportFor(result, kHoldingDestination);
  EXPECT_NE(holding.rungReason, kInputHoldsReason);
  EXPECT_GE(holding.solverStats.checks, 1u);
}

// Without the per-delta minimality softs (the NetComplete baseline) the
// empty patch is not the unique optimum, and the baseline's random-phase
// solve must stay what it was.
TEST(Aed, NoMinimalityReachesTheSolver) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  AedOptions options;
  options.defaultMinimality = false;
  const AedResult result =
      synthesize(tree, figure1AllPolicies(), {}, options);
  ASSERT_TRUE(result.success) << result.error;
  const SubproblemReport& holding = reportFor(result, kHoldingDestination);
  EXPECT_NE(holding.rungReason, kInputHoldsReason);
  EXPECT_GE(holding.solverStats.checks, 1u);
}

// An injected unknown on a holding group must still drive its ladder.
TEST(Aed, InjectedUnknownOnAHoldingGroupReachesTheSolver) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  AedOptions options;
  options.faultInjection.kind = FaultInjection::Kind::kUnknown;
  options.faultInjection.subproblem = 0;
  const AedResult result =
      synthesize(tree, figure1AllPolicies(), {}, options);
  ASSERT_TRUE(result.success) << result.error;
  const SubproblemReport& holding = reportFor(result, kHoldingDestination);
  ASSERT_EQ(holding.index, 0u);
  EXPECT_EQ(holding.outcome, SubOutcome::kDegraded);
  EXPECT_NE(holding.rung, SolveRung::kFull);
  EXPECT_GE(holding.solverStats.checks, 1u);
}

}  // namespace
}  // namespace aed
