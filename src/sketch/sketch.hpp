// Symbolic configuration sketch derivation (§5).
//
// buildSketch() walks the configuration tree and, guided by the physical
// topology and the policy set, enumerates every delta variable the MaxSMT
// problem will range over. The §8 "pruning irrelevant configuration"
// optimization lives here: when enabled, rules and originations whose
// prefixes cannot intersect any policy's traffic are skipped entirely
// (no delta variable, and the encoder also omits their conditionals).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "sketch/delta.hpp"
#include "topology/topology.hpp"

namespace aed {

struct SketchOptions {
  /// §8 optimization 1: skip conditionals/deltas not overlapping any policy
  /// traffic class.
  bool pruneIrrelevant = true;

  // Which families of potential nodes to offer the solver.
  bool allowAddAdjacency = true;
  bool allowOriginationChanges = true;
  bool allowStaticRoutes = true;
  bool allowRouteFilterChanges = true;
  bool allowPacketFilterChanges = true;
};

struct SketchStats {
  std::size_t total = 0;
  std::map<DeltaKind, std::size_t> byKind;
};

class Sketch {
 public:
  const std::vector<DeltaVar>& deltas() const { return deltas_; }

  /// All deltas whose nodePath lies within the subtree rooted at `path`
  /// (string-prefix match on path components).
  std::vector<const DeltaVar*> deltasUnderPath(const std::string& path) const;

  /// All deltas belonging to `router`.
  std::vector<const DeltaVar*> deltasOfRouter(const std::string& router) const;

  const DeltaVar* findByName(const std::string& name) const;

  SketchStats stats() const;

 private:
  friend Sketch buildSketch(const ConfigTree&, const Topology&,
                            const PolicySet&, const SketchOptions&, bool);
  void add(DeltaVar delta);

  std::vector<DeltaVar> deltas_;
  std::map<std::string, std::size_t> byName_;
};

/// `destinationScoped` is set by the per-destination decomposition (§8
/// optimization 2) whenever it splits the policies into more than one
/// subproblem: only deltas whose effect is confined to this subproblem's
/// destination prefixes are offered, so parallel subproblems cannot conflict
/// (the §6.2 example: repairing P3 must add a class-specific permit rule
/// rather than delete the broad deny rule P1 relies on). Concretely: no
/// process/adjacency/redistribution removals and no OSPF cost changes, and
/// rule or origination removals/flips/lp-changes only when the rule's (dst)
/// prefix is contained in one of the subproblem's destination classes.
Sketch buildSketch(const ConfigTree& tree, const Topology& topo,
                   const PolicySet& policies,
                   const SketchOptions& options = {},
                   bool destinationScoped = false);

}  // namespace aed
