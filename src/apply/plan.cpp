#include "apply/plan.hpp"

#include <algorithm>
#include <list>
#include <map>
#include <optional>

#include "conftree/node.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace aed {

namespace {

// The router name is the first path component's name attribute:
// Router[name=X]/... (same convention as Patch::touchedRouters).
std::string routerOfPath(const std::string& path) {
  const std::string prefix = "Router[name=";
  if (!startsWith(path, prefix)) return "";
  const auto end = path.find(']');
  if (end == std::string::npos) return "";
  return path.substr(prefix.size(), end - prefix.size());
}

// Predicts the signature of a node a kAddNode edit creates — the mirror of
// Node::signature() computed from the edit's attribute set. Used to detect
// structural dependencies between candidate stages (an edit targeting a
// node another stage creates must ride with that stage).
std::string signatureFor(NodeKind kind,
                         const std::map<std::string, std::string>& attrs) {
  const auto attr = [&attrs](const char* key) -> std::string {
    const auto it = attrs.find(key);
    return it == attrs.end() ? std::string() : it->second;
  };
  std::string sig(nodeKindName(kind));
  std::vector<std::pair<std::string, std::string>> parts;
  switch (kind) {
    case NodeKind::kNetwork:
      break;
    case NodeKind::kRouter:
    case NodeKind::kInterface:
    case NodeKind::kRouteFilter:
    case NodeKind::kPacketFilter:
      parts.emplace_back("name", attr("name"));
      break;
    case NodeKind::kRoutingProcess:
      parts.emplace_back("type", attr("type"));
      parts.emplace_back("name", attr("name"));
      break;
    case NodeKind::kAdjacency:
      parts.emplace_back("peer", attr("peer"));
      break;
    case NodeKind::kOrigination:
      parts.emplace_back("prefix", attr("prefix"));
      break;
    case NodeKind::kRedistribution:
      parts.emplace_back("from", attr("from"));
      break;
    case NodeKind::kRouteFilterRule:
    case NodeKind::kPacketFilterRule:
      parts.emplace_back("seq", attr("seq"));
      break;
  }
  if (!parts.empty()) {
    sig += '[';
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) sig += ',';
      sig += parts[i].first + "=" + parts[i].second;
    }
    sig += ']';
  }
  return sig;
}

// Destination prefix an edit can be attributed to, or nullopt when the edit
// is not destination-local (adjacencies, redistributions, renames, ...).
std::optional<std::string> destKeyOf(const Edit& edit, const ConfigTree& base) {
  const auto fromAttrs =
      [&edit](const char* key) -> std::optional<std::string> {
    const auto it = edit.attrs.find(key);
    if (it == edit.attrs.end()) return std::nullopt;
    return it->second;
  };
  if (edit.op == Edit::Op::kAddNode) {
    switch (edit.kind) {
      case NodeKind::kOrigination:
      case NodeKind::kRouteFilterRule:
        return fromAttrs("prefix");
      case NodeKind::kPacketFilterRule:
        return fromAttrs("dstPrefix");
      default:
        return std::nullopt;
    }
  }
  const Node* node = base.byPath(edit.targetPath);
  if (node == nullptr) return std::nullopt;  // targets a node another edit adds
  const auto fromNode = [&](const char* key) -> std::optional<std::string> {
    if (!node->hasAttr(key)) return std::nullopt;
    // A kSetAttr that *changes* the destination attribute matters to both
    // its old and new value — too entangled to split, stay conservative.
    const auto it = edit.attrs.find(key);
    if (it != edit.attrs.end() && it->second != node->attr(key)) {
      return std::nullopt;
    }
    return node->attr(key);
  };
  switch (node->kind()) {
    case NodeKind::kOrigination:
    case NodeKind::kRouteFilterRule:
      return fromNode("prefix");
    case NodeKind::kPacketFilterRule:
      return fromNode("dstPrefix");
    default:
      return std::nullopt;
  }
}

struct Unit {
  std::string label;
  std::set<std::string> routers;
  Patch patch;
};

// Splits one router's edits into per-destination units. Returns empty when
// splitting is impossible (an unattributable edit, fewer than two
// destinations, or structural dependencies collapsing everything into one
// group).
std::vector<Unit> trySplitByDestination(const std::string& router,
                                        const std::vector<const Edit*>& edits,
                                        const ConfigTree& base) {
  std::vector<std::string> keys(edits.size());
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const auto key = destKeyOf(*edits[i], base);
    if (!key) return {};
    keys[i] = *key;
  }
  // Union groups that structurally depend on each other: an edit whose
  // target path extends a node path another group's kAddNode creates.
  std::map<std::string, std::string> parent;  // destKey -> representative
  for (const std::string& key : keys) parent.emplace(key, key);
  const std::function<std::string(const std::string&)> find =
      [&](const std::string& key) -> std::string {
    std::string current = key;
    while (parent.at(current) != current) current = parent.at(current);
    return current;
  };
  for (std::size_t a = 0; a < edits.size(); ++a) {
    if (edits[a]->op != Edit::Op::kAddNode) continue;
    const std::string created =
        edits[a]->targetPath + "/" + signatureFor(edits[a]->kind,
                                                  edits[a]->attrs);
    for (std::size_t b = 0; b < edits.size(); ++b) {
      if (keys[a] == keys[b]) continue;
      if (edits[b]->targetPath == created ||
          startsWith(edits[b]->targetPath, created + "/")) {
        parent[find(keys[b])] = find(keys[a]);
      }
    }
  }
  std::map<std::string, Unit> groups;  // representative -> unit (sorted)
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Unit& unit = groups[find(keys[i])];
    unit.patch.add(*edits[i]);
  }
  if (groups.size() < 2) return {};
  std::vector<Unit> units;
  for (auto& [key, unit] : groups) {
    unit.label = "router " + router + " · dst " + key;
    unit.routers = {router};
    units.push_back(std::move(unit));
  }
  return units;
}

// Partitions the merged patch into atomic rollout units: one per touched
// router, split per destination where possible. Edit order within a unit
// follows the merged patch, so intra-unit dependencies (a rule under a
// freshly created filter) stay satisfied.
std::vector<Unit> partitionUnits(const Patch& merged, const ConfigTree& base) {
  std::map<std::string, std::vector<const Edit*>> byRouter;
  for (const Edit& edit : merged.edits()) {
    byRouter[routerOfPath(edit.targetPath)].push_back(&edit);
  }
  std::vector<Unit> units;
  for (const auto& [router, edits] : byRouter) {
    if (!router.empty()) {
      std::vector<Unit> split = trySplitByDestination(router, edits, base);
      if (!split.empty()) {
        for (Unit& unit : split) units.push_back(std::move(unit));
        continue;
      }
    }
    Unit unit;
    unit.label = router.empty() ? "network" : "router " + router;
    if (!router.empty()) unit.routers = {router};
    for (const Edit* edit : edits) unit.patch.add(*edit);
    units.push_back(std::move(unit));
  }
  return units;
}

// `policies` minus the ones named in `violated` (Policy has no operator==;
// str() is a faithful identity).
PolicySet minus(const PolicySet& policies, const PolicySet& violated) {
  std::set<std::string> violatedKeys;
  for (const Policy& policy : violated) violatedKeys.insert(policy.str());
  PolicySet held;
  for (const Policy& policy : policies) {
    if (violatedKeys.count(policy.str()) == 0) held.push_back(policy);
  }
  return held;
}

/// Policies from `policies` that hold on `base` and still hold on the tree
/// after `merged`: the transition invariant (a policy broken before the
/// update — typically the reason the update exists — cannot be "regressed"
/// by an intermediate state, and one broken after it is already reported by
/// synthesis). `engine` must be bound to `base`; a non-empty patch leaves it
/// bound to the final tree.
PolicySet regressionGuard(SimulationEngine& engine, const ConfigTree& base,
                          const Patch& merged, const PolicySet& policies) {
  const PolicySet heldBefore = minus(policies, engine.violations(policies));
  if (merged.empty()) return heldBefore;
  engine.rebind(merged.applied(base));
  return minus(heldBefore, engine.violations(heldBefore));
}

/// The body of planStagedRollout(), which times it by its span.
void planInto(DeploymentPlan& plan, const ConfigTree& base,
              const Patch& merged, const PolicySet& policies,
              const DeployOptions& options) {
  // One engine (and its worker pool) serves the guard and every candidate;
  // each rebind() drops the cached tables, so every candidate is checked on
  // tables converged for it.
  SimulationEngine engine(base, options.workers);
  plan.guard = regressionGuard(engine, base, merged, policies);
  if (merged.empty()) return;

  // Greedy commit loop with simulation-checked reordering.
  std::vector<Unit> units = partitionUnits(merged, base);
  ConfigTree current = base.clone();

  const auto pushStage = [&plan](Unit& unit, bool validated,
                                 std::string detail = {}) {
    DeploymentStage stage;
    stage.index = plan.stages.size();
    stage.label = std::move(unit.label);
    stage.patch = std::move(unit.patch);
    stage.routers = std::move(unit.routers);
    stage.validated = validated;
    stage.detail = std::move(detail);
    plan.stages.push_back(std::move(stage));
  };

  std::list<std::size_t> remaining;
  for (std::size_t i = 0; i < units.size(); ++i) remaining.push_back(i);

  while (!remaining.empty()) {
    bool progressed = false;
    std::size_t position = 0;
    for (auto it = remaining.begin(); it != remaining.end();
         ++it, ++position) {
      Unit& unit = units[*it];
      ConfigTree candidate = current.clone();
      ++plan.candidatesTried;
      try {
        unit.patch.apply(candidate);
      } catch (const AedError&) {
        continue;  // structurally inapplicable here; maybe later
      }
      engine.rebind(candidate);
      if (!engine.violations(plan.guard).empty()) continue;
      if (position != 0) ++plan.reorderings;
      pushStage(unit, /*validated=*/true);
      current = std::move(candidate);
      remaining.erase(it);
      progressed = true;
      break;
    }
    if (progressed) continue;

    // No remaining unit is individually transient-safe (the classic case:
    // two classes swapping disjoint paths under an isolation policy).
    Unit rest;
    std::size_t mergedUnits = 0;
    for (const std::size_t idx : remaining) {
      rest.patch.append(units[idx].patch);
      rest.routers.insert(units[idx].routers.begin(),
                          units[idx].routers.end());
      ++mergedUnits;
    }
    rest.label = "one-shot (" + std::to_string(mergedUnits) + " units)";
    bool validated = false;
    std::string detail;
    ConfigTree candidate = current.clone();
    ++plan.candidatesTried;
    try {
      rest.patch.apply(candidate);
      engine.rebind(candidate);
      validated = engine.violations(plan.guard).empty();
      if (!validated) detail = "final state regresses the guard (internal)";
    } catch (const AedError& e) {
      detail = e.what();
    }
    logWarn() << "staged rollout: no transient-safe order for "
              << mergedUnits << " remaining units; one-shot fallback";
    plan.oneShot = true;
    pushStage(rest, validated, std::move(detail));
    break;
  }
}

}  // namespace

const char* stageStatusName(StageStatus status) {
  switch (status) {
    case StageStatus::kPlanned: return "planned";
    case StageStatus::kCommitted: return "committed";
    case StageStatus::kRolledBack: return "rolled_back";
    case StageStatus::kSkipped: return "skipped";
  }
  return "planned";
}

DeploymentPlan planStagedRollout(const ConfigTree& base, const Patch& merged,
                                 const PolicySet& policies,
                                 const DeployOptions& options) {
  DeploymentPlan plan;
  {
    const Span span("deploy.plan", &plan.planSeconds);
    planInto(plan, base, merged, policies, options);
  }
  return plan;
}

std::string DeploymentPlan::describe() const {
  std::string out = "deployment plan: " + std::to_string(stages.size()) +
                    " stages, guarding " + std::to_string(guard.size()) +
                    " policies, " + std::to_string(candidatesTried) +
                    " intermediate states simulated, " +
                    std::to_string(reorderings) + " reorderings";
  if (oneShot) out += ", one-shot fallback";
  out += "\n";
  for (const DeploymentStage& stage : stages) {
    out += "  stage " + std::to_string(stage.index) + " [" +
           stageStatusName(stage.status) + "] " + stage.label + " — " +
           std::to_string(stage.patch.size()) + " edits, " +
           (stage.validated ? "validated" : "NOT validated");
    if (!stage.detail.empty()) out += " — " + stage.detail;
    out += "\n";
  }
  if (executed) {
    out += "deployment: " + std::to_string(committedStages) + "/" +
           std::to_string(stages.size()) + " stages committed";
    if (aborted) {
      out += "; ABORTED [" + std::string(errorCodeName(code)) + "]: " + error;
    }
    out += "\n";
  }
  return out;
}

}  // namespace aed
