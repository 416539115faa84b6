// Repair re-solve: repair-round convergence, a blocked re-solve of one
// subproblem, phase-stat accounting, the mergePatches positive seq floor,
// malformed-attribute parsing, and runParallel exception collection.
#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "core/subsolver.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "objectives/objective.hpp"
#include "simulate/simulator.hpp"
#include "util/thread_pool.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;
using aed::testing::figure1P1;
using aed::testing::figure1P2;
using aed::testing::figure1P3;

PolicySet figure1Policies() {
  return {figure1P1(), figure1P2(), figure1P3()};
}

/// Per-destination repair fixture: a small leaf-spine fabric with one rack's
/// host-subnet origination withdrawn. Restoring reachability has several
/// distinct fixes (re-originate, redistribute connected, static-route
/// chain), so the run still converges after kRejectValidation forces one or
/// two candidate delta sets to be blocked. (The figure-1 fixture is
/// unsuitable here: its deny rule matches `any`, which destination scoping
/// refuses to remove or flip, so the one add-rule delta is the only fix and
/// blocking it makes the re-solve unsat.)
struct RepairFixture {
  ConfigTree tree;
  PolicySet policies;
};

RepairFixture dcRepairFixture() {
  DcParams params;
  params.racks = 3;
  params.aggs = 1;
  params.spines = 0;
  params.blockedPairFraction = 0.0;
  params.seed = 29;
  GeneratedNetwork net = generateDatacenter(params);
  PolicySet policies = makeWithdrawnSubnetUpdate(net, "rack0");
  return {std::move(net.tree), std::move(policies)};
}

/// kRejectValidation deterministically fails the first two
/// otherwise-passing validation verdicts, so the blocking + re-solve
/// machinery runs for real, twice, before the run converges.
AedOptions repairHeavyOptions() {
  AedOptions options;
  options.maxRepairIterations = 5;
  options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
  options.faultInjection.rejectRounds = 2;
  return options;
}

// ---- repair rounds ----------------------------------------------------------

TEST(Incremental, RepairRoundsProduceValidatedPatch) {
  const RepairFixture fixture = dcRepairFixture();
  const AedResult result = synthesize(fixture.tree, fixture.policies, {},
                                      repairHeavyOptions());
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.repairRounds, 2u);
  // The final patch must pass the serial oracle: zero violated policies.
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(fixture.policies).empty());
}

TEST(Incremental, SequentialModeAlsoConverges) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = figure1Policies();
  AedOptions options = repairHeavyOptions();
  options.perDestination = false;  // one monolithic subproblem
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.repairRounds, 2u);
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

// Every repair round is a fresh solve: the repair bucket pays its own
// encode and solve time, so a round that ran is visible in the phase stats.
TEST(Incremental, RepairRoundsAccountEncodeAndSolve) {
  const RepairFixture fixture = dcRepairFixture();
  const AedResult result = synthesize(fixture.tree, fixture.policies, {},
                                      repairHeavyOptions());
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_GE(result.stats.repairRounds, 1u);
  EXPECT_GT(result.stats.firstRound.encodeSeconds, 0.0);
  EXPECT_GT(result.stats.firstRound.solveSeconds, 0.0);
  EXPECT_GT(result.stats.repair.encodeSeconds, 0.0);
  EXPECT_GT(result.stats.repair.solveSeconds, 0.0);
}

// A repair round's re-solve: blocking round 0's delta set must yield a
// different, still policy-compliant patch. With only the unit minimality
// softs the optimal cost is the number of active deltas, and an added hard
// clause can only raise the optimum, so the re-solve activates at least as
// many deltas as round 0.
TEST(Incremental, PersistentResolveMatchesFreshSolver) {
  const RepairFixture fixture = dcRepairFixture();
  const Topology topo = Topology::fromConfigs(fixture.tree);
  const auto solve = [&](const std::vector<std::vector<std::string>>& blocked) {
    return solveSubproblem(fixture.tree, topo, fixture.policies,
                           /*destinationScoped=*/false, {}, AedOptions{},
                           blocked, Deadline::unlimited());
  };

  std::vector<std::vector<std::string>> blocked;
  const SubResult first = solve(blocked);
  ASSERT_EQ(first.outcome, SubOutcome::kOk) << first.detail;
  ASSERT_FALSE(first.activeDeltas.empty());
  EXPECT_GT(first.phases.encodeSeconds, 0.0);

  blocked.push_back(first.activeDeltas);
  const SubResult resolved = solve(blocked);
  ASSERT_EQ(resolved.outcome, SubOutcome::kOk) << resolved.detail;
  EXPECT_NE(resolved.activeDeltas, first.activeDeltas);
  EXPECT_GE(resolved.activeDeltas.size(), first.activeDeltas.size());
  const ConfigTree updated = resolved.patch.applied(fixture.tree);
  Simulator sim(updated);
  EXPECT_TRUE(sim.violations(fixture.policies).empty());
}

TEST(Incremental, FaultInjectionRejectCountsRepairRounds) {
  const RepairFixture fixture = dcRepairFixture();
  AedOptions options = repairHeavyOptions();
  options.faultInjection.rejectRounds = 1;
  const AedResult result =
      synthesize(fixture.tree, fixture.policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GE(result.stats.repairRounds, 1u);
}

// ---- mergePatches: positive sequence-number floor --------------------------

Edit ruleAdd(const std::string& target, int seq, const std::string& src,
             const std::string& dst) {
  return Edit{Edit::Op::kAddNode, target, NodeKind::kPacketFilterRule,
              {{"seq", std::to_string(seq)},
               {"action", "permit"},
               {"srcPrefix", src},
               {"dstPrefix", dst}}};
}

TEST(MergePatches, CollisionAtSeqOneRenumbersUpwardNotToZero) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a, b;
  a.add(ruleAdd(target, 1, "1.0.0.0/16", "2.0.0.0/16"));
  b.add(ruleAdd(target, 1, "3.0.0.0/16", "4.0.0.0/16"));
  const Patch merged = mergePatches({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.edits()[0].attrs.at("seq"), "1");
  // No free positive slot below 1: the nearest free positive gap is 2.
  EXPECT_EQ(merged.edits()[1].attrs.at("seq"), "2");
}

TEST(MergePatches, ManyCollisionsNeverGoNonPositive) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  std::vector<Patch> patches;
  for (int i = 0; i < 6; ++i) {
    Patch p;
    p.add(ruleAdd(target, 2, "1.0.0.0/16",
                  std::to_string(10 + i) + ".0.0.0/16"));
    patches.push_back(std::move(p));
  }
  const Patch merged = mergePatches(patches);
  ASSERT_EQ(merged.size(), 6u);
  std::set<int> seqs;
  for (const Edit& edit : merged.edits()) {
    const int seq = std::stoi(edit.attrs.at("seq"));
    EXPECT_GE(seq, 1) << "non-positive seq emitted";
    EXPECT_TRUE(seqs.insert(seq).second) << "duplicate seq " << seq;
  }
}

TEST(MergePatches, NonPositiveInputSeqIsLiftedToPositive) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a;
  a.add(ruleAdd(target, 0, "1.0.0.0/16", "2.0.0.0/16"));
  a.add(ruleAdd(target, -3, "3.0.0.0/16", "4.0.0.0/16"));
  const Patch merged = mergePatches({a});
  ASSERT_EQ(merged.size(), 2u);
  for (const Edit& edit : merged.edits()) {
    EXPECT_GE(std::stoi(edit.attrs.at("seq")), 1);
  }
}

TEST(MergePatches, CollisionRenumberingIsDeterministic) {
  const std::string target = "Router[name=C]/PacketFilter[name=pf]";
  Patch a, b, c;
  a.add(ruleAdd(target, 5, "1.0.0.0/16", "2.0.0.0/16"));
  b.add(ruleAdd(target, 5, "3.0.0.0/16", "4.0.0.0/16"));
  c.add(ruleAdd(target, 4, "5.0.0.0/16", "6.0.0.0/16"));
  const Patch first = mergePatches({a, b, c});
  const Patch second = mergePatches({a, b, c});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.edits()[i].attrs.at("seq"),
              second.edits()[i].attrs.at("seq"));
  }
  // b collides at 5 and takes the nearest free positive slot below: 4 is
  // free at merge time of b (c comes later), so b gets 4 and c renumbers.
  EXPECT_EQ(first.edits()[0].attrs.at("seq"), "5");
  EXPECT_EQ(first.edits()[1].attrs.at("seq"), "4");
  EXPECT_EQ(first.edits()[2].attrs.at("seq"), "3");
}

// ---- malformed config attributes ------------------------------------------

TEST(IntAttr, MalformedAttributeThrowsStructuredParseError) {
  ConfigTree tree;
  Node& router = tree.addRouter("R1");
  Node& filter = router.addChild(NodeKind::kPacketFilter);
  filter.setAttr("name", "pf");
  Node& rule = filter.addChild(NodeKind::kPacketFilterRule);
  rule.setAttr("seq", "banana");
  try {
    rule.intAttr("seq");
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
    // The error names the node path so the operator can find the line.
    EXPECT_NE(std::string(e.what()).find("PacketFilter[name=pf]"),
              std::string::npos);
  }
}

TEST(IntAttr, MissingAttributeThrowsWithoutFallback) {
  ConfigTree tree;
  Node& router = tree.addRouter("R1");
  try {
    router.intAttr("cost");
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

TEST(IntAttr, FallbackAppliesOnlyWhenAbsent) {
  ConfigTree tree;
  Node& router = tree.addRouter("R1");
  EXPECT_EQ(router.intAttr("cost", 7), 7);
  router.setAttr("cost", "12");
  EXPECT_EQ(router.intAttr("cost", 7), 12);
  router.setAttr("cost", "12x");
  EXPECT_THROW(router.intAttr("cost", 7), AedError);
}

TEST(IntAttr, SimulatorSurfacesMalformedSeqInsteadOfAborting) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const auto rules = tree.collect(NodeKind::kPacketFilterRule);
  ASSERT_FALSE(rules.empty());
  rules.front()->setAttr("seq", "not-a-number");
  Simulator sim(tree);
  try {
    sim.violations({figure1P1()});
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

TEST(IntAttr, ObjectiveWeightParseErrorIsStructured) {
  try {
    parseObjective("NOMODIFY //Router WEIGHT twelve");
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

// ---- runParallel exception collection -------------------------------------

TEST(RunParallel, CollectsEveryFutureBeforeRethrowing) {
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] {
    throw AedError(ErrorCode::kSubproblemFailed, "task 0 failed");
  });
  for (int i = 0; i < 3; ++i) {
    tasks.emplace_back([&completed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++completed;
    });
  }
  try {
    runParallel(std::move(tasks), 4);
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSubproblemFailed);
  }
  // Every sibling ran to completion and had its future collected.
  EXPECT_EQ(completed.load(), 3);
}

TEST(RunParallel, FirstExceptionWinsWhenSeveralThrow) {
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back(
      [] { throw AedError(ErrorCode::kTimeout, "first failure"); });
  tasks.emplace_back(
      [] { throw AedError(ErrorCode::kInternal, "second failure"); });
  try {
    runParallel(std::move(tasks), 1);  // one worker: deterministic order
    FAIL() << "expected AedError";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
}

}  // namespace
}  // namespace aed
