// SimulationEngine equivalence tests.
//
// The engine is only allowed to be fast: every verdict and route table must
// be bit-identical to the serial from-scratch Simulator, including after
// rebind() across simulated repair rounds. These tests cross-check the two
// against the Figure 1 network, generated datacenter and zoo networks,
// random down-link environments, and hand-rolled patches.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "conftree/parser.hpp"
#include "conftree/patch.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

std::vector<std::string> policyStrings(const PolicySet& policies) {
  std::vector<std::string> out;
  out.reserve(policies.size());
  for (const Policy& policy : policies) out.push_back(policy.str());
  return out;
}

// Asserts that the engine and a fresh serial simulator agree on route
// tables (per stub destination), forwarding verdicts, inferred policies and
// violations — the full oracle surface.
void expectMatchesOracle(const ConfigTree& tree, const SimulationEngine& engine,
                         const PolicySet& policies,
                         const std::vector<Environment>& envs) {
  const Simulator oracle(tree);
  for (const auto& [subnet, owner] : oracle.topology().stubSubnets()) {
    for (const Environment& env : envs) {
      EXPECT_EQ(oracle.computeRoutes(subnet, env),
                engine.computeRoutes(subnet, env))
          << "route tables diverge for dst " << subnet.str();
    }
  }
  EXPECT_EQ(policyStrings(oracle.inferReachabilityPolicies()),
            policyStrings(engine.inferReachabilityPolicies()));
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(engine.violations(policies)));
  for (const Policy& policy : policies) {
    EXPECT_EQ(oracle.checkPolicy(policy), engine.checkPolicy(policy))
        << policy.str();
  }
}

class Figure1Engine : public ::testing::Test {
 protected:
  Figure1Engine()
      : tree_(parseNetworkConfig(figure1ConfigText())), engine_(tree_) {}

  PolicySet figurePolicies() const {
    return {aed::testing::figure1P1(), aed::testing::figure1P2(),
            aed::testing::figure1P3(),
            Policy::isolation(cls("2.0.0.0/16", "1.0.0.0/16"),
                              cls("3.0.0.0/16", "2.0.0.0/16")),
            Policy::pathPreference(cls("3.0.0.0/16", "2.0.0.0/16"),
                                   {"D", "B"}, {"D", "B"})};
  }

  ConfigTree tree_;
  SimulationEngine engine_;
};

TEST_F(Figure1Engine, MatchesSerialSimulator) {
  expectMatchesOracle(tree_, engine_, figurePolicies(),
                      {Environment::allUp(),
                       Environment::withDownLink("A", "B"),
                       Environment::withDownLink("B", "C")});
}

TEST_F(Figure1Engine, MemoizesRouteTables) {
  const PolicySet policies = figurePolicies();
  engine_.violations(policies);
  const SimCacheStats first = engine_.cacheStats();
  EXPECT_GT(first.routeMisses, 0u);
  engine_.violations(policies);
  const SimCacheStats second = engine_.cacheStats();
  EXPECT_EQ(second.routeMisses, first.routeMisses)
      << "repeat validation must be served entirely from cache";
  EXPECT_GT(second.routeHits, first.routeHits);

  // A cached table keeps its address until the next rebind, even while
  // other tables are inserted into the same destination's shard.
  const auto dst = *Ipv4Prefix::parse("1.0.0.0/16");
  const Environment env = Environment::withDownLink("A", "B");
  const auto* table = &engine_.computeRoutes(dst, env);
  engine_.computeRoutes(dst, Environment::withDownLink("B", "C"));
  engine_.computeRoutes(dst);
  EXPECT_EQ(&engine_.computeRoutes(dst, env), table);
}

TEST_F(Figure1Engine, EnvironmentKeyCanonicalizesLinkOrientation) {
  const auto dst = *Ipv4Prefix::parse("1.0.0.0/16");
  engine_.computeRoutes(dst, Environment::withDownLink("A", "B"));
  const SimCacheStats before = engine_.cacheStats();
  engine_.computeRoutes(dst, Environment::withDownLink("B", "A"));
  const SimCacheStats after = engine_.cacheStats();
  EXPECT_EQ(after.routeMisses, before.routeMisses);
  EXPECT_EQ(after.routeHits, before.routeHits + 1);
}

// Every edit kind the deploy planner and repair rounds produce, each re-bound
// on a warm engine: the rebind must drop every cached table, and the engine
// must then agree with a fresh oracle on the updated tree.
TEST_F(Figure1Engine, RebindMatchesOracleForEveryEditKind) {
  const PolicySet policies = figurePolicies();
  const auto one = *Ipv4Prefix::parse("1.0.0.0/16");
  const auto rebindWarm = [&](const ConfigTree& updated) {
    engine_.violations(policies);
    engine_.computeRoutes(one);
    const SimCacheStats warm = engine_.cacheStats();
    engine_.rebind(updated);
    engine_.computeRoutes(one);
    EXPECT_EQ(engine_.cacheStats().routeMisses, warm.routeMisses + 1)
        << "a rebind must not serve a table cached for the previous tree";
    expectMatchesOracle(updated, engine_, policies, {Environment::allUp()});
  };
  const auto addEdit = [](const Node* target, NodeKind kind,
                          std::map<std::string, std::string> attrs) {
    Edit edit;
    edit.op = Edit::Op::kAddNode;
    edit.targetPath = target->path();
    edit.kind = kind;
    edit.attrs = std::move(attrs);
    return edit;
  };
  const auto removeEdit = [](const Node* target) {
    Edit edit;
    edit.op = Edit::Op::kRemoveNode;
    edit.targetPath = target->path();
    return edit;
  };
  const Node* procA =
      tree_.router("A")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const Node* procB =
      tree_.router("B")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const Node* packetFilter =
      tree_.router("B")->findChild(NodeKind::kPacketFilter, "pf_b");
  const Node* routeFilter = procB->findChild(NodeKind::kRouteFilter, "rf_a");
  ASSERT_NE(packetFilter, nullptr);
  ASSERT_NE(routeFilter, nullptr);

  // Packet-filter rule: unblock 3.0.0.0/16 -> 2.0.0.0/16 on B's ingress
  // filter. The forwarding walk must see the new rule.
  const Edit permit = addEdit(packetFilter, NodeKind::kPacketFilterRule,
                              {{"seq", "5"},
                               {"action", "permit"},
                               {"srcPrefix", "3.0.0.0/16"},
                               {"dstPrefix", "2.0.0.0/16"}});
  Patch permitPatch;
  permitPatch.add(permit);
  rebindWarm(permitPatch.applied(tree_));
  EXPECT_TRUE(engine_.checkPolicy(aed::testing::figure1P3()));

  // Origination removal: A withdraws 1.0.0.0/16.
  const Node* orig = procA->childrenOfKind(NodeKind::kOrigination)[0];
  ASSERT_EQ(orig->attr("prefix"), "1.0.0.0/16");
  Patch withdraw;
  withdraw.add(removeEdit(orig));
  rebindWarm(withdraw.applied(tree_));

  // Connected redistribution into A's BGP process.
  Patch redistribute;
  redistribute.add(
      addEdit(procA, NodeKind::kRedistribution, {{"from", "connected"}}));
  rebindWarm(redistribute.applied(tree_));

  // Adjacency removal on B: can reroute any destination.
  Patch dropAdjacency;
  dropAdjacency.add(
      removeEdit(procB->childrenOfKind(NodeKind::kAdjacency)[0]));
  rebindWarm(dropAdjacency.applied(tree_));

  // Two repair rounds, both relative to the seed tree: round 2 repeats
  // round 1's packet-filter rule and adds a route-filter rule.
  Patch round2;
  round2.add(permit);
  round2.add(addEdit(routeFilter, NodeKind::kRouteFilterRule,
                     {{"seq", "15"},
                      {"action", "permit"},
                      {"prefix", "4.0.0.0/16"},
                      {"lp", "200"}}));
  rebindWarm(permitPatch.applied(tree_));
  rebindWarm(round2.applied(tree_));
}

TEST(EngineSerial, SingleWorkerMatchesOracle) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const SimulationEngine engine(tree, 1);  // never fans out
  const Simulator oracle(tree);
  const PolicySet policies = oracle.inferReachabilityPolicies();
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(engine.violations(policies)));
  EXPECT_EQ(engine.cacheStats().parallelBatches, 0u);
}

// Property test: generated networks, mixed policy sets, random down-link
// environments, then a random mutation applied through rebind().
TEST(EngineProperty, GeneratedNetworksMatchOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    DcParams dc;
    dc.racks = 3;
    dc.aggs = 2;
    dc.spines = 2;
    dc.seed = seed;
    GeneratedNetwork dcNet = generateDatacenter(dc);
    ZooParams zoo;
    zoo.routers = 10;
    zoo.seed = seed;
    GeneratedNetwork zooNet = generateZoo(zoo);

    for (GeneratedNetwork* net : {&dcNet, &zooNet}) {
      const Simulator oracle(net->tree);
      PolicySet policies = oracle.inferReachabilityPolicies();
      const PolicySet waypoints = makeWaypointPolicies(net->tree, 4, seed);
      policies.insert(policies.end(), waypoints.begin(), waypoints.end());
      const PolicySet prefs = makePathPreferencePolicies(net->tree, 3, seed);
      policies.insert(policies.end(), prefs.begin(), prefs.end());

      std::mt19937_64 rng(seed);
      std::vector<Environment> envs = {Environment::allUp()};
      const auto& links = oracle.topology().links();
      for (int i = 0; i < 2 && !links.empty(); ++i) {
        const Link& link = links[rng() % links.size()];
        envs.push_back(Environment::withDownLink(link.a, link.b));
      }

      const SimulationEngine engine(net->tree);
      expectMatchesOracle(net->tree, engine, policies, envs);
    }
  }
}

TEST(EngineProperty, RandomPatchesMatchOracleAfterRebind) {
  DcParams dc;
  dc.racks = 3;
  dc.aggs = 2;
  dc.spines = 2;
  dc.seed = 7;
  const GeneratedNetwork net = generateDatacenter(dc);
  const Simulator seedOracle(net.tree);
  const PolicySet policies = seedOracle.inferReachabilityPolicies();

  SimulationEngine engine(net.tree);
  engine.violations(policies);  // warm the cache

  // Mutation 1: withdraw a rack's host-subnet origination.
  const Node* rack = net.tree.router("rack0");
  ASSERT_NE(rack, nullptr);
  const Node* proc = rack->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const auto origs = proc->childrenOfKind(NodeKind::kOrigination);
  ASSERT_FALSE(origs.empty());
  Patch withdraw;
  Edit removeOrig;
  removeOrig.op = Edit::Op::kRemoveNode;
  removeOrig.targetPath = origs[0]->path();
  withdraw.add(removeOrig);
  const ConfigTree updated1 = withdraw.applied(net.tree);
  engine.rebind(updated1);
  {
    const Simulator oracle(updated1);
    EXPECT_EQ(policyStrings(oracle.violations(policies)),
              policyStrings(engine.violations(policies)));
  }

  // Mutation 2 (relative to the same seed tree): additionally deny a host
  // subnet on an agg router's route-filter template.
  const Node* agg = net.tree.router("agg0");
  ASSERT_NE(agg, nullptr);
  const auto filters = agg->childrenOfKind(NodeKind::kRoutingProcess)[0]
                           ->childrenOfKind(NodeKind::kRouteFilter);
  Patch both = withdraw;
  if (!filters.empty()) {
    Edit deny;
    deny.op = Edit::Op::kAddNode;
    deny.targetPath = filters[0]->path();
    deny.kind = NodeKind::kRouteFilterRule;
    deny.attrs = {{"seq", "1"},
                  {"action", "deny"},
                  {"prefix", net.hostSubnets.begin()->second.str()}};
    both.add(deny);
  }
  const ConfigTree updated2 = both.applied(net.tree);
  engine.rebind(updated2);
  const Simulator oracle(updated2);
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(engine.violations(policies)));
  for (const auto& [subnet, owner] : oracle.topology().stubSubnets()) {
    EXPECT_EQ(oracle.computeRoutes(subnet), engine.computeRoutes(subnet))
        << subnet.str();
  }
}

// The violation order must equal the input policy order even when the
// verdicts are computed in parallel across destination shards. Workers are
// forced to 4 so the parallel path runs even on single-CPU hosts.
TEST(EngineProperty, ViolationOrderMatchesInputOrder) {
  DcParams dc;
  dc.racks = 4;
  dc.aggs = 2;
  dc.spines = 2;
  dc.seed = 11;
  const GeneratedNetwork net = generateDatacenter(dc);
  const Simulator oracle(net.tree);
  PolicySet policies = oracle.inferReachabilityPolicies();
  std::mt19937_64 rng(11);
  std::shuffle(policies.begin(), policies.end(), rng);

  const SimulationEngine engine(net.tree, 4);
  const PolicySet violated = engine.violations(policies);
  EXPECT_EQ(policyStrings(oracle.violations(policies)),
            policyStrings(violated));
  // Sanity: the parallel path actually ran.
  EXPECT_GT(engine.cacheStats().parallelBatches, 0u);
}

}  // namespace
}  // namespace aed
