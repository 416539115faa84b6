// Parser robustness corpus: truncated lines, malformed prefixes, duplicate
// router names, absurd numeric attributes. Every case must fail with
// AedError(kParseError) carrying a useful location — never crash, never
// silently accept (the std::atoi it replaced did both). Runs under
// ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <string>

#include "conftree/node.hpp"
#include "conftree/parser.hpp"
#include "util/error.hpp"

namespace aed {
namespace {

// Asserts parsing fails with kParseError, a line number, and a message
// mentioning `needle`.
void expectParseError(const std::string& config, const std::string& needle,
                      int line = 0) {
  try {
    parseNetworkConfig(config);
    FAIL() << "expected parse failure mentioning '" << needle
           << "' for:\n" << config;
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("line"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    if (line > 0) {
      EXPECT_NE(what.find("line " + std::to_string(line)),
                std::string::npos)
          << what;
    }
  }
}

// ------------------------------------------------------------ truncated lines

TEST(ParserRobustness, TruncatedHostname) {
  expectParseError("hostname\n", "expected 2 tokens", 1);
}

TEST(ParserRobustness, TruncatedInterface) {
  expectParseError("hostname A\ninterface\n", "expected 2 tokens", 2);
}

TEST(ParserRobustness, TruncatedRouterLine) {
  expectParseError("hostname A\nrouter bgp\n", "expected 3 tokens", 2);
}

TEST(ParserRobustness, TruncatedIpAddress) {
  expectParseError("hostname A\ninterface eth0\n ip address\n",
                   "expected 3 tokens", 3);
}

TEST(ParserRobustness, TruncatedNeighbor) {
  expectParseError(
      "hostname A\nrouter bgp 65001\n neighbor 10.0.0.1\n",
      "bad neighbor line", 3);
}

TEST(ParserRobustness, TruncatedPacketFilter) {
  expectParseError("hostname A\npacket-filter pf seq 10 permit\n",
                   "expected 7 tokens", 2);
}

TEST(ParserRobustness, TruncatedRouteFilter) {
  expectParseError(
      "hostname A\nrouter bgp 65001\n route-filter rf seq 10 permit\n",
      "bad route-filter line", 3);
}

TEST(ParserRobustness, DanglingSetClause) {
  expectParseError(
      "hostname A\nrouter bgp 65001\n"
      " route-filter rf seq 10 permit any set local-preference\n",
      "set", 3);
}

// -------------------------------------------------------------- bad prefixes

TEST(ParserRobustness, BadNetworkPrefix) {
  expectParseError("hostname A\nrouter bgp 65001\n network 1.2.3.4/99\n",
                   "bad prefix", 3);
  expectParseError("hostname A\nrouter bgp 65001\n network banana\n",
                   "bad prefix", 3);
  expectParseError("hostname A\nrouter bgp 65001\n network 1.2.3/16\n",
                   "bad prefix", 3);
}

TEST(ParserRobustness, BadInterfaceAddress) {
  expectParseError("hostname A\ninterface eth0\n ip address 10.0.0.1\n",
                   "bad interface address", 3);
  expectParseError("hostname A\ninterface eth0\n ip address 300.0.0.1/24\n",
                   "bad interface address", 3);
}

TEST(ParserRobustness, BadPacketFilterPrefix) {
  expectParseError(
      "hostname A\npacket-filter pf seq 10 permit 10.0.0.0/8 1.2.3.4/xx\n",
      "bad prefix", 2);
}

TEST(ParserRobustness, BadNeighborAddress) {
  expectParseError(
      "hostname A\nrouter bgp 65001\n neighbor nope remote-router B\n",
      "bad address", 3);
}

// ----------------------------------------------------- duplicate router names

TEST(ParserRobustness, DuplicateHostname) {
  expectParseError("hostname A\nhostname B\nhostname A\n",
                   "duplicate hostname A", 3);
}

// ------------------------------------------------------- absurd numeric attrs

TEST(ParserRobustness, CostOverflowsInt) {
  // std::atoi was UB here; from_chars reports out-of-range.
  expectParseError(
      "hostname A\nrouter ospf 1\n"
      " neighbor 10.0.0.1 remote-router B cost 99999999999999999999\n",
      "cost must be a decimal integer", 3);
}

TEST(ParserRobustness, CostNotANumber) {
  expectParseError(
      "hostname A\nrouter ospf 1\n"
      " neighbor 10.0.0.1 remote-router B cost banana\n",
      "cost must be a decimal integer", 3);
}

TEST(ParserRobustness, CostTrailingGarbage) {
  expectParseError(
      "hostname A\nrouter ospf 1\n"
      " neighbor 10.0.0.1 remote-router B cost 12x3\n",
      "cost must be a decimal integer", 3);
}

TEST(ParserRobustness, CostNonPositive) {
  expectParseError(
      "hostname A\nrouter ospf 1\n"
      " neighbor 10.0.0.1 remote-router B cost 0\n",
      "cost must be a positive integer", 3);
  expectParseError(
      "hostname A\nrouter ospf 1\n"
      " neighbor 10.0.0.1 remote-router B cost -5\n",
      "cost must be a positive integer", 3);
}

TEST(ParserRobustness, SeqOverflowsInt) {
  expectParseError(
      "hostname A\npacket-filter pf seq 999999999999999999999 permit any any\n",
      "seq must be a decimal integer", 2);
  expectParseError(
      "hostname A\nrouter bgp 65001\n"
      " route-filter rf seq 88888888888888888888 permit any\n",
      "seq must be a decimal integer", 3);
}

TEST(ParserRobustness, SeqNotANumber) {
  expectParseError("hostname A\npacket-filter pf seq ten permit any any\n",
                   "seq must be a decimal integer", 2);
}

TEST(ParserRobustness, MetricOverflowAndGarbage) {
  expectParseError(
      "hostname A\nrouter bgp 65001\n"
      " route-filter rf seq 10 permit any set local-preference 4294967296000\n",
      "metric must be a decimal integer", 3);
  expectParseError(
      "hostname A\nrouter bgp 65001\n"
      " route-filter rf seq 10 permit any set med 1e9\n",
      "metric must be a decimal integer", 3);
}

TEST(ParserRobustness, MetricNegative) {
  expectParseError(
      "hostname A\nrouter bgp 65001\n"
      " route-filter rf seq 10 permit any set local-preference -1\n",
      "metric must be non-negative", 3);
}

// ------------------------------------------------------------- structure bugs

TEST(ParserRobustness, ConfigBeforeHostname) {
  expectParseError("interface eth0\n", "configuration before hostname", 1);
}

TEST(ParserRobustness, IndentedLineOutsideBlock) {
  expectParseError("hostname A\n ip address 10.0.0.1/24\n",
                   "indented line outside a block", 2);
}

TEST(ParserRobustness, UnknownDirectives) {
  expectParseError("hostname A\nflux-capacitor on\n",
                   "unknown top-level directive", 2);
  expectParseError("hostname A\nrouter rip 1\n",
                   "unknown routing protocol", 2);
  expectParseError("hostname A\ninterface eth0\n shutdown\n",
                   "unknown interface directive", 3);
  expectParseError("hostname A\nrouter bgp 65001\n aggregate-address x\n",
                   "unknown process directive", 3);
}

TEST(ParserRobustness, BadActions) {
  expectParseError("hostname A\npacket-filter pf seq 10 allow any any\n",
                   "bad action", 2);
  expectParseError(
      "hostname A\nrouter bgp 65001\n route-filter rf seq 10 drop any\n",
      "bad action", 3);
}

TEST(ParserRobustness, StaticProcessRules) {
  expectParseError("hostname A\nrouter static 0\n network 1.0.0.0/16\n",
                   "'network' not valid in static process", 3);
  expectParseError("hostname A\nrouter bgp 65001\n route 1.0.0.0/16 10.0.0.1\n",
                   "'route' only valid in static process", 3);
}

// ---------------------------------------------------- attribute parse errors

// The parser canonicalizes `seq`, so a bad value can only come from a tree
// edited after parsing. Node::intAttr names the node's full path; the text
// is pinned exactly because it is built only when the parse fails.
TEST(ParserRobustness, BadSeqAttributeMessageIsExact) {
  ConfigTree tree = parseNetworkConfig(
      "hostname A\npacket-filter pf seq 10 permit any any\n");
  Node* rule = tree.byPath(
      "Router[name=A]/PacketFilter[name=pf]/PacketFilterRule[seq=10]");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->intAttr("seq"), 10);
  rule->setAttr("seq", "ten");
  const std::string expected =
      "invalid integer 'ten' in attribute 'seq' of node "
      "Router[name=A]/PacketFilter[name=pf]/PacketFilterRule[seq=ten]";
  for (const bool withFallback : {false, true}) {
    try {
      withFallback ? rule->intAttr("seq", 0) : rule->intAttr("seq");
      FAIL() << "expected a parse failure";
    } catch (const AedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError);
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

// ------------------------------------------------------- still-accepted input

TEST(ParserRobustness, SeqIsCanonicalizedNotRejected) {
  const ConfigTree tree = parseNetworkConfig(
      "hostname A\npacket-filter pf seq 007 permit any any\n");
  EXPECT_NE(
      tree.byPath("Router[name=A]/PacketFilter[name=pf]/PacketFilterRule[seq=7]"),
      nullptr);
}

TEST(ParserRobustness, CommentsAndBlankLinesIgnored) {
  const ConfigTree tree = parseNetworkConfig(
      "! leading comment\n\nhostname A\n# another\n\nrouter bgp 65001\n");
  EXPECT_NE(tree.router("A"), nullptr);
}

TEST(ParserRobustness, RouterConfigWithoutHostname) {
  ConfigTree tree;
  try {
    parseRouterConfig(tree, "! nothing here\n");
    FAIL() << "expected parse failure";
  } catch (const AedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

}  // namespace
}  // namespace aed
