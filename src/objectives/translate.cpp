#include "objectives/translate.hpp"

#include <map>
#include <optional>
#include <set>

#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

// A desugared objective group: the subtree roots sharing a GROUPBY value and
// the deltas under each root.
struct Group {
  std::string key;  // GROUPBY attribute value ("" without GROUPBY)
  // root path -> deltas under it.
  std::map<std::string, std::vector<const DeltaVar*>> roots;
};

std::map<std::string, Group> collectGroups(const Sketch& sketch,
                                           const Objective& objective) {
  std::map<std::string, Group> groups;
  for (const DeltaVar& delta : sketch.deltas()) {
    const auto root = objective.xpath.rootOf(delta.virtualPath());
    if (!root) continue;
    const std::string key =
        objective.groupBy.empty()
            ? ""
            : XPath::rootAttr(*root, objective.groupBy);
    Group& group = groups[key];
    group.key = key;
    group.roots[*root].push_back(&delta);
  }
  return groups;
}

z3::expr noModifyConstraint(Encoder& encoder, const Group& group) {
  z3::expr any = encoder.session().boolVal(false);
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      any = any || encoder.deltaActive(*delta);
    }
  }
  return !any;
}

z3::expr eliminateConstraint(Encoder& encoder, const Group& group) {
  z3::expr out = encoder.session().boolVal(true);
  // No additions; every node that has a removal delta must be removed.
  // (Modification deltas — flips, lp changes — are irrelevant once the node
  // is gone; nodes whose removal deltas were pruned cannot be eliminated
  // through this objective.)
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      if (isAddKind(delta->kind)) {
        out = out && !encoder.deltaActive(*delta);
      } else if (deltaKindName(delta->kind).rfind("rm-", 0) == 0) {
        out = out && encoder.deltaActive(*delta);
      }
    }
  }
  return out;
}

z3::expr equateConstraint(Encoder& encoder, const Group& group) {
  // Align deltas across the group's subtrees by their position relative to
  // the subtree root; corresponding deltas must take equal values, deltas
  // without a counterpart in every subtree must stay inactive.
  z3::expr out = encoder.session().boolVal(true);
  if (group.roots.size() < 2) return out;  // single clone: trivially equal

  struct Entry {
    const DeltaVar* delta;
    std::string root;
  };
  std::map<std::string, std::vector<Entry>> byKey;
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      byKey[delta->relativeKey(root)].push_back(Entry{delta, root});
    }
  }
  const std::size_t cloneCount = group.roots.size();
  for (const auto& [key, entries] : byKey) {
    if (entries.size() < cloneCount) {
      // Asymmetric position: at least one clone lacks this node; keeping the
      // clones identical means not touching it anywhere.
      for (const Entry& entry : entries) {
        out = out && !encoder.deltaActive(*entry.delta);
      }
      continue;
    }
    const Entry& first = entries.front();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const Entry& other = entries[i];
      out = out && (encoder.deltaActive(*first.delta) ==
                    encoder.deltaActive(*other.delta));
      // Value-level equality so clones receive the *same* change, not just
      // "a" change.
      const auto lp1 = encoder.lpValueExpr(*first.delta);
      const auto lp2 = encoder.lpValueExpr(*other.delta);
      if (lp1 && lp2) out = out && (*lp1 == *lp2);
      if (first.delta->kind == DeltaKind::kAddRouteFilterRule ||
          first.delta->kind == DeltaKind::kAddPacketFilterRule) {
        out = out && (encoder.addAllowVar(*first.delta) ==
                      encoder.addAllowVar(*other.delta));
      }
    }
  }
  return out;
}

/// One desugared objective: its report label and, unless its XPath selected
/// no delta, the group its soft constraint ranges over.
struct Desugared {
  std::string label;
  const Objective* objective = nullptr;
  std::optional<Group> group;
};

/// Desugars every objective over the sketch's deltas, in registration order.
/// The one source of objective labels, for the encoder and for the solver-free
/// step 0 alike.
std::vector<Desugared> desugar(const Sketch& sketch,
                               const std::vector<Objective>& objectives) {
  std::vector<Desugared> out;
  for (const Objective& objective : objectives) {
    auto groups = collectGroups(sketch, objective);
    if (groups.empty()) {
      // Nothing selected: the objective is vacuously satisfied.
      out.push_back({objective.label + " [no matches]", &objective, {}});
      continue;
    }
    for (auto& [key, group] : groups) {
      std::string label = objective.label;
      if (!objective.groupBy.empty()) {
        label += " [" + objective.groupBy + "=" + key + "]";
      }
      out.push_back({std::move(label), &objective, std::move(group)});
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> objectiveLabels(
    const Sketch& sketch, const std::vector<Objective>& objectives) {
  std::vector<std::string> labels;
  for (Desugared& desugared : desugar(sketch, objectives)) {
    labels.push_back(std::move(desugared.label));
  }
  return labels;
}

std::vector<std::string> addObjectives(
    Encoder& encoder, const std::vector<Objective>& objectives) {
  std::vector<std::string> labels;
  for (Desugared& desugared : desugar(encoder.sketch(), objectives)) {
    // An objective that selected nothing registers a trivially-true soft
    // constraint so reports stay complete.
    z3::expr constraint = encoder.session().boolVal(true);
    if (desugared.group) {
      switch (desugared.objective->restriction) {
        case Restriction::kNoModify:
          constraint = noModifyConstraint(encoder, *desugared.group);
          break;
        case Restriction::kEliminate:
          constraint = eliminateConstraint(encoder, *desugared.group);
          break;
        case Restriction::kEquate:
          constraint = equateConstraint(encoder, *desugared.group);
          break;
      }
    }
    encoder.session().addSoft(constraint, desugared.objective->weight,
                              desugared.label);
    labels.push_back(std::move(desugared.label));
  }
  logInfo() << "registered " << labels.size()
            << " desugared objective soft constraints";
  return labels;
}

void addPerDeltaMinimality(Encoder& encoder, unsigned weight) {
  for (const DeltaVar& delta : encoder.sketch().deltas()) {
    encoder.session().addSoft(!encoder.deltaActive(delta), weight,
                              "min-change:" + delta.name,
                              SmtSession::SoftKind::kMinimality);
  }
}

}  // namespace aed
