// The repository benchmark (see perfbench/README.md).
//
// One process generates a workload from --seed, times calls into the
// library's public functions from outside, checks every output against an
// independent oracle outside the timed region, and prints one JSON result
// line. With --trace 1 it enables aed::Tracer, wraps each layer call in a
// span of its own, and reports per-layer self time and counts instead of the
// end-to-end metrics.
//
// Workloads:
//   zoo-reach     Topology-Zoo-style networks, 8 base + 8 added reachability
//                 policies, objective min-devices; timed op = synthesize.
//   dc-classes    leaf-spine fabrics with ~5% added reachability, waypoint and
//                 path-preference policies; timed op = synthesize, then
//                 planStagedRollout + executeDeployment of the patch.
//   verify-large  100-160 router zoo networks and dc24 fabrics; timed op =
//                 print -> parse round trip, then SimulationEngine inference
//                 and violations() over a policy set with waypoints.
//
// Run: aedbench --workload zoo-reach --seed 1 --seconds 20 --trace 0
//      aedbench --write-oracle <oracle file>   (recomputes verify-large
//                                               verdicts with the serial
//                                               Simulator; slow)

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "objectives/objective.hpp"
#include "obs/trace.hpp"
#include "policy/parse.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace aed;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user+system CPU seconds, all threads.
double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set size since the last resetPeakRss() (VmHWM), in MB.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // KiB on Linux; never reset
}

/// Returns freed heap pages to the kernel and resets the peak-RSS mark to
/// the current RSS, so the next peakRssMb() covers only what ran in between
/// on top of the live heap. Where the kernel does not allow the reset, the
/// mark keeps the process-wide peak. Only the untimed RSS ops call this: a
/// timed op after a trim would fault its working set back in.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Workload definitions

enum class Workload { kZooReach, kDcClasses, kVerifyLarge };

Workload parseWorkload(const std::string& name) {
  if (name == "zoo-reach") return Workload::kZooReach;
  if (name == "dc-classes") return Workload::kDcClasses;
  if (name == "verify-large") return Workload::kVerifyLarge;
  throw std::invalid_argument("unknown workload: " + name);
}

/// Network shape of one scenario: a zoo network of `routers` routers or a
/// leaf-spine fabric of about `routers` routers, from generator seed `seed`.
struct NetSpec {
  bool dc = false;
  int routers = 0;
  std::uint64_t seed = 0;
  std::string label() const {
    return std::string(dc ? "dc" : "zoo") + std::to_string(routers) + "/s" +
           std::to_string(seed);
  }
};

/// Leaf-spine shape for a target router count (as the figure benches use).
DcParams dcParams(int routers, std::uint64_t seed) {
  DcParams params;
  params.aggs = std::max(1, routers / 4);
  params.spines = routers >= 8 ? std::max(1, routers / 8) : 0;
  params.racks = routers - params.aggs - params.spines;
  params.blockedPairFraction = 0.4;
  params.seed = seed;
  return params;
}

GeneratedNetwork generate(const NetSpec& spec) {
  if (spec.dc) return generateDatacenter(dcParams(spec.routers, spec.seed));
  ZooParams params;
  params.routers = spec.routers;
  params.seed = spec.seed;
  return generateZoo(params);
}

// Scenarios per run. Each synthesis workload uses one network size, so the
// median over the batch does not jump between the modes of a size mix; the
// run seed picks the generator instances. zoo-reach also fixes the link
// count: at 12 routers the generator draws 14-21 links, and the link count
// alone explains most of the scenario-to-scenario spread in solver work.
constexpr int kZooRouters = 12;
constexpr std::size_t kZooLinks = 18;
constexpr std::size_t kZooBatch = 44;
constexpr int kDcRouters = 8;
constexpr std::size_t kDcBatch = 60;

// verify-large draws its networks from a fixed pool, because its oracle
// verdicts (serial Simulator, minutes per 160-router network) are computed
// once and stored in perfbench/oracle_verdicts.txt. The run seed picks
// kVerifyPicks of the kVerifyInstances instances of each shape.
struct PoolShape {
  bool dc;
  int routers;
};
constexpr PoolShape kVerifyShapes[] = {
    {false, 100}, {false, 130}, {false, 160}, {true, 24}};
constexpr std::uint64_t kVerifyInstances = 4;
constexpr std::size_t kVerifyPicks = 2;

std::uint64_t poolSeed(const PoolShape& shape, std::uint64_t instance) {
  return (shape.dc ? 5000 : 2000) + static_cast<std::uint64_t>(shape.routers) * 10 +
         instance;
}

std::vector<NetSpec> batchSpecs(Workload workload, std::uint64_t seed) {
  std::vector<NetSpec> specs;
  Rng rng(seed * 3 + static_cast<std::uint64_t>(workload));
  switch (workload) {
    case Workload::kZooReach:
      for (std::size_t k = 0; k < kZooBatch; ++k) {
        specs.push_back({false, kZooRouters, rng.below(1000000)});
      }
      break;
    case Workload::kDcClasses:
      for (std::size_t k = 0; k < kDcBatch; ++k) {
        specs.push_back({true, kDcRouters, rng.below(1000000)});
      }
      break;
    case Workload::kVerifyLarge:
      for (const PoolShape& shape : kVerifyShapes) {
        std::vector<std::uint64_t> instances;
        for (std::uint64_t i = 0; i < kVerifyInstances; ++i) instances.push_back(i);
        for (std::size_t k = 0; k < kVerifyPicks; ++k) {
          const std::size_t pick = k + rng.index(instances.size() - k);
          std::swap(instances[k], instances[pick]);
          specs.push_back({shape.dc, shape.routers, poolSeed(shape, instances[k])});
        }
      }
      break;
  }
  return specs;
}

// ---------------------------------------------------------------------------
// verify-large policy sets and oracle records

/// verify-large policy set, derived from a simulator's own view of the
/// network: the inferred reachability matrix, waypoint policies that hold
/// (a mid-path router of the current forwarding path) and that do not (a
/// router off the path), and a few flipped matrix entries that must be
/// reported as violated. `Sim` is the serial Simulator (oracle mode) or the
/// SimulationEngine (benchmark set-up); both give identical inputs.
template <typename Sim>
PolicySet verifyPolicies(const Sim& sim, const PolicySet& inferred,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> routers;
  for (const auto& [subnet, router] : sim.topology().stubSubnets()) {
    routers.push_back(router);
  }
  std::sort(routers.begin(), routers.end());
  routers.erase(std::unique(routers.begin(), routers.end()), routers.end());

  PolicySet out = inferred;
  const std::size_t picks = std::min<std::size_t>(inferred.size(), 400);
  for (std::size_t i = 0; i < picks; ++i) {
    const Policy& policy = inferred[rng.index(inferred.size())];
    if (policy.kind == PolicyKind::kBlocking) {
      if (rng.chance(0.1)) out.push_back(Policy::reachability(policy.cls));
      continue;
    }
    const auto sources = sim.sourceRouters(policy.cls);
    if (sources.empty()) continue;
    const ForwardResult fwd = sim.forward(policy.cls, sources.front());
    if (!fwd.delivered || fwd.path.size() < 3) continue;
    if (rng.chance(0.8)) {
      out.push_back(Policy::waypoint(
          policy.cls, {fwd.path[1 + rng.index(fwd.path.size() - 2)]}));
    } else {
      const std::set<std::string> onPath(fwd.path.begin(), fwd.path.end());
      const std::string& other = routers[rng.index(routers.size())];
      if (onPath.count(other) == 0) {
        out.push_back(Policy::waypoint(policy.cls, {other}));
      } else {
        out.push_back(Policy::blocking(policy.cls));
      }
    }
  }
  return out;
}

/// Verdicts of the serial Simulator for one pool network.
struct OracleRecord {
  std::string label;
  std::uint64_t policiesDigest = 0;  // printPolicies(policy set)
  std::uint64_t inferredDigest = 0;  // printPolicies(inferred matrix)
  std::uint64_t violationsDigest = 0;
  std::size_t policies = 0;
  std::size_t violations = 0;
};

std::map<std::string, OracleRecord> readOracle(const std::string& path) {
  std::map<std::string, OracleRecord> records;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read oracle file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    OracleRecord rec;
    std::string pol, inf, vio;
    fields >> rec.label >> pol >> inf >> vio >> rec.policies >> rec.violations;
    if (!fields) throw std::runtime_error("malformed oracle line: " + line);
    rec.policiesDigest = std::stoull(pol, nullptr, 16);
    rec.inferredDigest = std::stoull(inf, nullptr, 16);
    rec.violationsDigest = std::stoull(vio, nullptr, 16);
    records[rec.label] = rec;
  }
  return records;
}

int writeOracle(const std::string& path, const std::string& only) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  for (const PoolShape& shape : kVerifyShapes) {
    for (std::uint64_t i = 0; i < kVerifyInstances; ++i) {
      const NetSpec spec{shape.dc, shape.routers, poolSeed(shape, i)};
      if (!only.empty() && spec.label() != only) continue;
      const auto start = Clock::now();
      const GeneratedNetwork net = generate(spec);
      const Simulator sim(net.tree);
      const PolicySet inferred = sim.inferReachabilityPolicies();
      const PolicySet policies = verifyPolicies(sim, inferred, spec.seed);
      const PolicySet violated = sim.violations(policies);
      out << spec.label() << ' ' << hex(fnv1a(printPolicies(policies))) << ' '
          << hex(fnv1a(printPolicies(inferred))) << ' '
          << hex(fnv1a(printPolicies(violated))) << ' ' << policies.size()
          << ' ' << violated.size() << '\n';
      out.flush();
      std::fprintf(stderr, "oracle %s: %zu policies, %zu violated, %.1fs\n",
                   spec.label().c_str(), policies.size(), violated.size(),
                   since(start));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Scenarios and samples

struct Scenario {
  NetSpec spec;
  GeneratedNetwork net;
  PolicySet policies;
  std::size_t added = 0;
  const OracleRecord* oracle = nullptr;  // verify-large only
};

/// Counts that must repeat exactly across runs of one seed.
using Counts = std::map<std::string, std::uint64_t>;

/// Measurements of one timed op on one scenario.
struct Sample {
  std::size_t scenario = 0;
  bool traced = false;
  bool rssOp = false;  // untimed op of the peak-RSS pass
  double wall = 0.0;
  double cpu = 0.0;
  double peakRss = 0.0;  // MB, during the op; set on RSS ops only
  bool ok = false;
  std::string failure;
  Counts counts;

  // synthesis workloads
  AedStats stats;
  std::vector<SubproblemReport> subproblems;
  // dc-classes
  std::size_t stages = 0;
  std::size_t candidatesTried = 0;
  // verify-large
  SimCacheStats engine;
};

/// Runs one layer call inside a benchmark span (recorded only when the
/// tracer is on), so the traced run can attribute self time to the layer.
template <typename F>
auto inSpan(const char* span, F&& call) {
  Span s(span);
  return call();
}

class Bench {
 public:
  Bench(Workload workload, std::uint64_t seed, std::size_t workers,
        const std::string& oraclePath)
      : workload_(workload), seed_(seed), workers_(workers) {
    if (workload_ == Workload::kVerifyLarge) oracle_ = readOracle(oraclePath);
  }

  /// Generates the batch (untimed set-up), replacing any earlier one.
  /// Returns the seconds it took.
  double setUp() {
    scenarios_.clear();
    const auto start = Clock::now();
    const std::vector<NetSpec> specs = batchSpecs(workload_, seed_);
    for (std::size_t index = 0; index < specs.size(); ++index) {
      const NetSpec& spec = specs[index];
      Span root("bench.setup");
      if (root.active()) root.setDetail("scenario=" + std::to_string(index));
      Scenario sc;
      sc.spec = spec;
      {
        Span span("bench.gen.network");
        sc.net = generate(spec);
        if (workload_ == Workload::kZooReach) {
          Rng redraw(spec.seed);
          while (Topology::fromConfigs(sc.net.tree).links().size() != kZooLinks) {
            sc.spec.seed = redraw.below(1000000);
            sc.net = generate(sc.spec);
          }
        }
      }
      {
        Span span("bench.gen.policies");
        makePolicies(sc);
      }
      scenarios_.push_back(std::move(sc));
    }
    return since(start);
  }

  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  /// Runs the op on scenario `index` and checks its output. An RSS op
  /// (`rssOp`) also measures the op's peak RSS; its times are not used.
  Sample run(std::size_t index, bool traced, bool rssOp = false) {
    const Scenario& sc = scenarios_[index];
    Sample sample;
    sample.scenario = index;
    sample.traced = traced;
    sample.rssOp = rssOp;
    Span root("bench.scenario");
    if (root.active()) root.setDetail("scenario=" + std::to_string(index));
    try {
      if (workload_ == Workload::kVerifyLarge) {
        runVerify(sc, sample);
      } else {
        runSynthesis(sc, sample);
      }
    } catch (const std::exception& e) {
      sample.ok = false;
      sample.failure = std::string("exception: ") + e.what();
    }
    return sample;
  }

 private:
  void makePolicies(Scenario& sc) {
    const ConfigTree& tree = sc.net.tree;
    const std::uint64_t seed = sc.spec.seed + 7919;
    switch (workload_) {
      case Workload::kZooReach: {
        // The Fig. 11b update: 8 base + 8 added reachability policies.
        const PolicyUpdate update = makeReachabilityUpdate(tree, 8, seed, 8);
        sc.policies = update.base;
        sc.policies.insert(sc.policies.end(), update.added.begin(),
                           update.added.end());
        sc.added = update.added.size();
        break;
      }
      case Workload::kDcClasses: {
        // ~5% new policies of each Fig. 13 class on top of the inferred base,
        // which has one policy per ordered pair of host subnets.
        const auto subnets = static_cast<int>(
            Topology::fromConfigs(tree).stubSubnets().size());
        const int count = std::max(1, subnets * (subnets - 1) / 20);
        const PolicyUpdate update = makeReachabilityUpdate(tree, count, seed);
        const PolicySet waypoints = makeWaypointPolicies(tree, count, seed + 1);
        const PolicySet preferences =
            makePathPreferencePolicies(tree, count, seed + 2);
        sc.policies = update.base;
        for (const PolicySet* extra : {&update.added, &waypoints, &preferences}) {
          sc.policies.insert(sc.policies.end(), extra->begin(), extra->end());
          sc.added += extra->size();
        }
        break;
      }
      case Workload::kVerifyLarge: {
        const SimulationEngine engine(tree, workers_);
        sc.policies =
            verifyPolicies(engine, engine.inferReachabilityPolicies(),
                           sc.spec.seed);
        const auto it = oracle_.find(sc.spec.label());
        if (it == oracle_.end()) {
          throw std::runtime_error("no oracle verdicts for " +
                                   sc.spec.label());
        }
        sc.oracle = &it->second;
        break;
      }
    }
  }

  void runSynthesis(const Scenario& sc, Sample& sample) {
    AedOptions options;
    options.workers = workers_;
    options.deploy.workers = workers_;
    const std::vector<Objective> objectives = objectivesMinDevices();
    ConfigTree live;
    if (workload_ == Workload::kDcClasses) live = sc.net.tree.clone();

    if (sample.rssOp) resetPeakRss();
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    AedResult result = inSpan("bench.synthesize", [&] {
      return synthesize(sc.net.tree, sc.policies, objectives, options);
    });
    DeploymentPlan plan;
    bool deployed = true;
    if (workload_ == Workload::kDcClasses && result.success) {
      plan = inSpan("bench.apply.plan", [&] {
        return planStagedRollout(sc.net.tree, result.patch, sc.policies,
                                 options.deploy);
      });
      deployed = inSpan("bench.apply.execute", [&] {
        return executeDeployment(live, plan, options.deploy);
      });
    }
    sample.wall = since(start);
    sample.cpu = cpuSeconds() - cpu0;
    if (sample.rssOp) sample.peakRss = peakRssMb();

    sample.stats = result.stats;
    sample.subproblems = result.subproblems;
    sample.stages = plan.stages.size();
    sample.candidatesTried = plan.candidatesTried;

    // Correctness gate, outside the timed region.
    inSpan("bench.oracle", [&] {
      if (!result.success) {
        sample.failure = "synthesis failed: " + result.error;
        return;
      }
      if (result.degraded) {
        sample.failure = "synthesis degraded";
        return;
      }
      const Simulator oracle(result.updated);
      const PolicySet violated = oracle.violations(sc.policies);
      if (!violated.empty()) {
        sample.failure = std::to_string(violated.size()) +
                         " policies violated by the patched network, e.g. " +
                         violated.front().str();
        return;
      }
      if (workload_ == Workload::kDcClasses) {
        if (!deployed || plan.committedStages != plan.stages.size()) {
          sample.failure = "deployment aborted: " + plan.error;
          return;
        }
        if (printNetworkConfig(live) != printNetworkConfig(result.updated)) {
          sample.failure = "deployed network differs from the synthesized one";
          return;
        }
      }
      sample.ok = true;
    });

    const DiffStats diff = diffNetworks(sc.net.tree, result.updated);
    std::uint64_t conflicts = 0, vars = 0, assertions = 0;
    for (const SubproblemReport& sub : result.subproblems) {
      conflicts += sub.solverStats.conflicts;
      vars += sub.solverStats.vars;
      assertions += sub.solverStats.assertions;
    }
    sample.counts = {
        {"smt.conflicts", conflicts},
        {"encode.vars", vars},
        {"encode.assertions", assertions},
        {"sketch.deltas", result.stats.deltaCount},
        {"core.subproblems", result.stats.subproblems},
        {"devices_changed", static_cast<std::uint64_t>(diff.devicesChanged)},
        {"lines_changed", static_cast<std::uint64_t>(diff.linesChanged())},
    };
  }

  void runVerify(const Scenario& sc, Sample& sample) {
    if (sample.rssOp) resetPeakRss();
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const std::string text = inSpan("bench.conftree.print",
                                   [&] { return printNetworkConfig(sc.net.tree); });
    const ConfigTree parsed = inSpan("bench.conftree.parse",
                                    [&] { return parseNetworkConfig(text); });
    // A cold engine per op: the full sweeps are what this workload measures.
    // Binding the engine (tree copy + compilation) counts as inference.
    std::unique_ptr<SimulationEngine> engine;
    const PolicySet inferred = inSpan("bench.simulate.infer", [&] {
      engine = std::make_unique<SimulationEngine>(parsed, workers_);
      return engine->inferReachabilityPolicies();
    });
    const PolicySet violated = inSpan("bench.simulate.check",
                                      [&] { return engine->violations(sc.policies); });
    sample.wall = since(start);
    sample.cpu = cpuSeconds() - cpu0;
    if (sample.rssOp) sample.peakRss = peakRssMb();
    sample.engine = engine->cacheStats();

    std::size_t lines = 0;
    inSpan("bench.oracle", [&] {
      lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
      const OracleRecord& rec = *sc.oracle;
      if (fnv1a(printPolicies(sc.policies)) != rec.policiesDigest) {
        sample.failure = "policy set differs from the one the oracle judged";
      } else if (printNetworkConfig(parsed) != text) {
        sample.failure = "print/parse round trip is not a fixed point";
      } else if (fnv1a(printPolicies(inferred)) != rec.inferredDigest) {
        sample.failure = "inferred policies differ from the oracle's";
      } else if (fnv1a(printPolicies(violated)) != rec.violationsDigest) {
        sample.failure = "violations differ from the oracle's (" +
                         std::to_string(violated.size()) + " vs " +
                         std::to_string(rec.violations) + ")";
      } else {
        sample.ok = true;
      }
    });
    sample.counts = {
        {"conftree.lines", lines},
        {"simulate.inferred", inferred.size()},
        {"simulate.violations", violated.size()},
        {"simulate.route_misses", sample.engine.routeMisses},
    };
  }

  Workload workload_;
  std::uint64_t seed_;
  std::size_t workers_;
  std::map<std::string, OracleRecord> oracle_;
  std::vector<Scenario> scenarios_;
};

// ---------------------------------------------------------------------------
// Tracing: per-layer self time from the benchmark's own spans

/// Adds each benchmark span's self time (duration minus the union of its
/// direct benchmark-span children) to `selfTime`, keyed by span name.
void accumulateSelfTime(const std::vector<TraceEvent>& events,
                        std::map<std::string, double>& selfTime) {
  std::map<std::uint64_t, const TraceEvent*> byId;
  std::map<std::uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& ev : events) {
    if (std::strncmp(ev.name, "bench.", 6) != 0) continue;
    byId[ev.id] = &ev;
  }
  for (const auto& [id, ev] : byId) {
    // Library spans sit between benchmark spans only below a layer call, so
    // a benchmark span's benchmark-span parent is its direct parent.
    if (byId.count(ev->parent) != 0) children[ev->parent].push_back(ev);
  }
  for (const auto& [id, ev] : byId) {
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    for (const TraceEvent* child : children[id]) {
      spans.emplace_back(child->startUs, child->startUs + child->durUs);
    }
    std::sort(spans.begin(), spans.end());
    std::int64_t covered = 0, end = ev->startUs;
    for (const auto& [s, e] : spans) {
      const std::int64_t from = std::max(s, end);
      if (e > from) {
        covered += e - from;
        end = e;
      }
    }
    selfTime[ev->name] += 1e-6 * static_cast<double>(ev->durUs - covered);
  }
}

// ---------------------------------------------------------------------------
// Determinism check

/// Compares per-scenario counts with those recorded for the same seed in
/// `path` (written on first use). Returns the names of counts that differ.
std::vector<std::string> checkCountsFile(const std::string& path,
                                         const std::vector<Counts>& counts) {
  std::map<std::string, std::uint64_t> recorded;
  {
    std::ifstream in(path);
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) recorded[key] = value;
  }
  std::vector<std::string> mismatches;
  if (recorded.empty()) {
    std::ofstream out(path);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      for (const auto& [name, value] : counts[i]) {
        out << i << ':' << name << ' ' << value << '\n';
      }
    }
    return mismatches;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (const auto& [name, value] : counts[i]) {
      const std::string key = std::to_string(i) + ':' + name;
      const auto it = recorded.find(key);
      if (it == recorded.end() || it->second != value) mismatches.push_back(key);
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string formatNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           formatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string countsFile;
  std::string oracleFile = "perfbench/oracle_verdicts.txt";
  std::string writeOracle;
  std::string only;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--counts-file") {
      args.countsFile = value;
    } else if (flag == "--oracle-file") {
      args.oracleFile = value;
    } else if (flag == "--write-oracle") {
      args.writeOracle = value;
    } else if (flag == "--only") {
      args.only = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

/// Per-scenario aggregates of the untraced timed samples.
struct ScenarioTimes {
  std::vector<double> walls;
  double cpu = 0.0;
};

std::vector<Metric> endToEndMetrics(const std::vector<double>& setupTimes,
                                    const std::vector<ScenarioTimes>& perScenario,
                                    const std::vector<double>& rssPeaks,
                                    std::size_t attempted, std::size_t failed) {
  // Each scenario counts once, however many times the loop repeated it.
  std::vector<double> medians;
  double meanWallSum = 0.0, meanCpuSum = 0.0;
  for (const ScenarioTimes& t : perScenario) {
    if (t.walls.empty()) continue;  // loop cut short by kMaxLoopSeconds
    const double n = static_cast<double>(t.walls.size());
    medians.push_back(quantile(t.walls, 0.5));
    double sum = 0.0;
    for (double w : t.walls) sum += w;
    meanWallSum += sum / n;
    meanCpuSum += t.cpu / n;
  }
  const double scenarios = static_cast<double>(medians.size());
  return {
      {"setup_s", *std::min_element(setupTimes.begin(), setupTimes.end()), "s"},
      {"scenario_s_p50", quantile(medians, 0.5), "s"},
      {"scenarios_per_min", 60.0 * scenarios / meanWallSum, "1/min"},
      {"cpu_s_per_scenario", meanCpuSum / scenarios, "s"},
      {"peak_rss_mb", quantile(rssPeaks, 0.5), "MB"},
      {"ok_frac",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "frac"},
  };
}

/// Per-layer metrics from the traced samples. Times are seconds per timed op
/// (mean over traced samples; gen.* per set-up of the batch); counts are
/// totals over the first traced sample of each scenario, i.e. one batch.
std::vector<Metric> perLayerMetrics(const Bench& bench,
                                    const std::vector<Sample>& samples,
                                    std::map<std::string, double>& selfTime,
                                    double setupReps, std::size_t workers,
                                    double untracedP50, std::size_t mismatches) {
  const std::size_t batch = bench.scenarios().size();
  std::vector<const Sample*> traced, first(batch, nullptr);
  for (const Sample& s : samples) {
    if (!s.traced) continue;
    traced.push_back(&s);
    if (first[s.scenario] == nullptr) first[s.scenario] = &s;
  }
  const double n = static_cast<double>(traced.size());
  auto self = [&](const char* span) { return selfTime[span] / n; };

  // Times: mean per traced sample.
  PhaseBreakdown phases;
  double critS = 0, sumSubS = 0, tailRatio = 0, parEff = 0;
  std::vector<double> subSeconds;
  std::vector<std::vector<double>> tracedWalls(batch);
  for (const Sample* s : traced) {
    const AedStats& st = s->stats;
    for (const PhaseBreakdown* pb : {&st.firstRound, &st.repair}) {
      phases.sketchSeconds += pb->sketchSeconds;
      phases.encodeSeconds += pb->encodeSeconds;
      phases.solveSeconds += pb->solveSeconds;
      phases.simulateSeconds += pb->simulateSeconds;
    }
    critS += st.maxSubproblemSeconds;
    sumSubS += st.sumSubproblemSeconds;
    std::vector<double> subs;
    for (const SubproblemReport& sub : s->subproblems) subs.push_back(sub.seconds);
    subSeconds.insert(subSeconds.end(), subs.begin(), subs.end());
    if (!subs.empty()) tailRatio += st.maxSubproblemSeconds / quantile(subs, 0.5);
    if (st.totalSeconds > 0) {
      parEff += st.sumSubproblemSeconds /
                (st.totalSeconds * static_cast<double>(workers));
    }
    tracedWalls[s->scenario].push_back(s->wall);
  }
  std::vector<double> tracedMedians;
  for (const std::vector<double>& walls : tracedWalls) {
    if (!walls.empty()) tracedMedians.push_back(quantile(walls, 0.5));
  }

  // Counts: one batch, from the first traced sample of each scenario.
  std::map<std::string, double> count;
  double maxMemory = 0, fullRung = 0, subCount = 0;
  std::size_t routeHits = 0, routeMisses = 0;
  struct Slow {
    const SubproblemReport* report;
    std::string scenario;
  };
  std::vector<Slow> slowest;
  for (const Sample* s : first) {
    if (s == nullptr) continue;
    for (const auto& [name, value] : s->counts) count[name] += static_cast<double>(value);
    for (const SubproblemReport& sub : s->subproblems) {
      count["smt.decisions"] += static_cast<double>(sub.solverStats.decisions);
      count["smt.checks"] += static_cast<double>(sub.solverStats.checks);
      maxMemory = std::max(maxMemory, sub.solverStats.maxMemoryMb);
      fullRung += sub.rung == SolveRung::kFull ? 1 : 0;
      subCount += 1;
      slowest.push_back({&sub, bench.scenarios()[s->scenario].spec.label()});
    }
    count["core.repair_rounds"] += static_cast<double>(s->stats.repairRounds);
    count["apply.stages"] += static_cast<double>(s->stages);
    count["apply.candidates_tried"] += static_cast<double>(s->candidatesTried);
    routeHits += s->engine.routeHits + s->stats.simulate.routeHits;
    routeMisses += s->engine.routeMisses + s->stats.simulate.routeMisses;
  }

  std::sort(slowest.begin(), slowest.end(), [](const Slow& a, const Slow& b) {
    return a.report->seconds > b.report->seconds;
  });
  if (!slowest.empty()) std::printf("slowest subproblems:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, slowest.size()); ++i) {
    const SubproblemReport& r = *slowest[i].report;
    std::printf("  %-14s dst=%-16s %8.3fs vars=%llu assertions=%llu "
                "conflicts=%llu rung=%s mem=%.0fMB\n",
                slowest[i].scenario.c_str(), r.destination.c_str(), r.seconds,
                static_cast<unsigned long long>(r.solverStats.vars),
                static_cast<unsigned long long>(r.solverStats.assertions),
                static_cast<unsigned long long>(r.solverStats.conflicts),
                solveRungName(r.rung), r.solverStats.maxMemoryMb);
  }

  const double lookups = static_cast<double>(routeHits + routeMisses);
  return {
      {"gen.network_s", selfTime["bench.gen.network"] / setupReps, "s"},
      {"gen.policies_s", selfTime["bench.gen.policies"] / setupReps, "s"},
      {"conftree.print_s", self("bench.conftree.print"), "s"},
      {"conftree.parse_s", self("bench.conftree.parse"), "s"},
      {"conftree.lines", count["conftree.lines"], "count"},
      {"simulate.infer_s", self("bench.simulate.infer"), "s"},
      {"simulate.check_s", self("bench.simulate.check"), "s"},
      {"simulate.route_misses", static_cast<double>(routeMisses), "count"},
      {"simulate.hit_rate",
       lookups == 0 ? 0.0 : static_cast<double>(routeHits) / lookups, "frac"},
      {"simulate.validate_s", phases.simulateSeconds / n, "s"},
      {"sketch.s", phases.sketchSeconds / n, "s"},
      {"sketch.deltas", count["sketch.deltas"], "count"},
      {"encode.s", phases.encodeSeconds / n, "s"},
      {"encode.vars", count["encode.vars"], "count"},
      {"encode.assertions", count["encode.assertions"], "count"},
      {"smt.solve_s", phases.solveSeconds / n, "s"},
      {"smt.conflicts", count["smt.conflicts"], "count"},
      {"smt.decisions", count["smt.decisions"], "count"},
      {"smt.checks", count["smt.checks"], "count"},
      {"smt.max_memory_mb", maxMemory, "MB"},
      {"smt.full_rung_frac", subCount == 0 ? 0.0 : fullRung / subCount, "frac"},
      {"core.synthesize_s", self("bench.synthesize"), "s"},
      {"core.subproblems", count["core.subproblems"], "count"},
      {"core.crit_path_s", critS / n, "s"},
      {"core.sum_subproblem_s", sumSubS / n, "s"},
      {"core.subproblem_s_p50", quantile(subSeconds, 0.5), "s"},
      {"core.subproblem_s_p90", quantile(subSeconds, 0.9), "s"},
      {"core.tail_ratio", tailRatio / n, "ratio"},
      {"core.parallel_eff", parEff / n, "frac"},
      {"core.repair_rounds", count["core.repair_rounds"], "count"},
      {"apply.plan_s", self("bench.apply.plan"), "s"},
      {"apply.execute_s", self("bench.apply.execute"), "s"},
      {"apply.stages", count["apply.stages"], "count"},
      {"apply.candidates_tried", count["apply.candidates_tried"], "count"},
      {"oracle.check_s", self("bench.oracle"), "s"},
      {"trace.overhead_frac",
       untracedP50 > 0 ? quantile(tracedMedians, 0.5) / untracedP50 - 1.0 : 0.0,
       "frac"},
      {"patch.devices_changed", count["devices_changed"], "count"},
      {"patch.lines_changed", count["lines_changed"], "count"},
      {"determinism.mismatches", static_cast<double>(mismatches), "count"},
  };
}

int runBenchmark(const Args& args) {
  const Workload workload = parseWorkload(args.workload);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min<std::size_t>(4, nproc);
  std::printf("host: nproc=%zu cpu=\"%s\" workers=%zu (synthesize, deploy, "
              "simulation engine)\n",
              nproc, cpuModel().c_str(), workers);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Set-up: generate the batch kSetupReps times here and, in an untraced
  // run, kLateSetupReps times after the timed loop. setup_s is the fastest
  // of them: the host has slow stretches of several seconds, and set-ups
  // half a minute apart rarely both fall in one.
  constexpr int kSetupReps = 5;
  constexpr int kLateSetupReps = 4;
  std::map<std::string, double> selfTime;
  Bench bench(workload, args.seed, workers, args.oracleFile);
  std::vector<double> setupTimes;
  if (args.trace) Tracer::enable();
  for (int rep = 0; rep < kSetupReps; ++rep) setupTimes.push_back(bench.setUp());
  if (args.trace) {
    Tracer::disable();
    accumulateSelfTime(Tracer::collect(), selfTime);
    Tracer::clear();
  }
  const std::size_t batch = bench.scenarios().size();
  for (const Scenario& sc : bench.scenarios()) {
    std::printf("scenario %s: %zu policies (%zu added)\n",
                sc.spec.label().c_str(), sc.policies.size(), sc.added);
  }

  // Untimed ops before the timed loop, so first-call costs (thread and
  // allocator start-up) are not charged to the first scenario. An untraced
  // run makes them the peak-RSS pass: kRssOps scenarios spread over the
  // batch, each with its own RSS mark. The traced run needs one op only.
  constexpr std::size_t kRssOps = 16;
  std::vector<Sample> samples;
  if (args.trace) {
    bench.run(0, false);
  } else {
    const std::size_t ops = std::min(kRssOps, batch);
    for (std::size_t i = 0; i < ops; ++i) {
      Sample sample = bench.run(i * batch / ops, false, true);
      std::fprintf(stderr, "rss %s: %.1fMB%s%s\n",
                   bench.scenarios()[sample.scenario].spec.label().c_str(),
                   sample.peakRss, sample.ok ? "" : " FAILED: ",
                   sample.failure.c_str());
      samples.push_back(std::move(sample));
    }
  }

  // Timed loop: one full pass over the batch, then keep cycling until
  // --seconds have elapsed. A traced run makes each op twice in a row, once
  // untraced and once traced, so the tracing overhead is measured on the
  // same input under the same machine load; the order alternates between
  // scenarios, because the second op of a pair runs on warmer caches.
  // kMaxLoopSeconds keeps a much slower build inside the harness's per-run
  // limit.
  constexpr double kMaxLoopSeconds = 140.0;
  const std::size_t opsPerScenario = args.trace ? 2 : 1;
  const auto loopStart = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::size_t pass = k / (batch * opsPerScenario);
    const std::size_t index = (k / opsPerScenario) % batch;
    const double elapsed = since(loopStart);
    if ((pass >= 1 && elapsed >= args.seconds) || elapsed >= kMaxLoopSeconds) {
      break;
    }
    const bool traced = args.trace && (k % 2 == 1) != (index % 2 == 1);
    if (traced) Tracer::enable();
    Sample sample = bench.run(index, traced);
    if (traced) {
      Tracer::disable();
      accumulateSelfTime(Tracer::collect(), selfTime);
      Tracer::clear();
    }
    std::fprintf(stderr, "pass %zu %s%s: %.4fs cpu %.4fs%s%s\n", pass,
                 bench.scenarios()[index].spec.label().c_str(),
                 traced ? " (traced)" : "", sample.wall, sample.cpu,
                 sample.ok ? "" : " FAILED: ", sample.failure.c_str());
    samples.push_back(std::move(sample));
  }

  if (!args.trace) {
    for (int rep = 0; rep < kLateSetupReps; ++rep) setupTimes.push_back(bench.setUp());
  }

  // Determinism: every repeat must reproduce the first sample's counts, and
  // so must an earlier run of the same seed when a counts file is given.
  std::vector<Counts> firstCounts(batch);
  for (const Sample& s : samples) {
    if (firstCounts[s.scenario].empty()) firstCounts[s.scenario] = s.counts;
  }
  std::set<std::string> mismatches;
  for (const Sample& s : samples) {
    if (s.counts != firstCounts[s.scenario]) {
      for (const auto& [name, value] : s.counts) {
        if (firstCounts[s.scenario][name] != value) {
          mismatches.insert(std::to_string(s.scenario) + ':' + name);
        }
      }
    }
  }
  if (!args.countsFile.empty()) {
    for (const std::string& key : checkCountsFile(args.countsFile, firstCounts)) {
      mismatches.insert(key + " (vs. an earlier run of this seed)");
    }
  }
  for (const std::string& key : mismatches) {
    std::printf("determinism: count %s did not repeat\n", key.c_str());
  }

  std::size_t failed = 0;
  std::vector<ScenarioTimes> perScenario(batch);
  std::vector<double> rssPeaks;
  for (const Sample& s : samples) {
    if (!s.ok) {
      ++failed;
      std::printf("FAILED %s: %s\n",
                  bench.scenarios()[s.scenario].spec.label().c_str(),
                  s.failure.c_str());
    }
    if (s.rssOp) {
      rssPeaks.push_back(s.peakRss);
    } else if (!s.traced) {
      perScenario[s.scenario].walls.push_back(s.wall);
      perScenario[s.scenario].cpu += s.cpu;
    }
  }
  std::vector<Metric> metrics = endToEndMetrics(setupTimes, perScenario, rssPeaks,
                                                samples.size(), failed);
  const double p50 = metrics[1].value;
  std::printf("scenario_s_p50 %.4f over %zu scenarios (%zu timed ops, %zu RSS "
              "ops)\n",
              p50, batch, samples.size() - rssPeaks.size(), rssPeaks.size());
  if (args.trace) {
    metrics = perLayerMetrics(bench, samples, selfTime, kSetupReps, workers,
                              p50, mismatches.size());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printResult(failed == 0, samples.size(), failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    if (!args.writeOracle.empty()) return writeOracle(args.writeOracle, args.only);
    if (args.workload.empty()) {
      std::fprintf(stderr,
                   "usage: aedbench --workload <zoo-reach|dc-classes|"
                   "verify-large> --seed <n> --seconds <s> --trace <0|1> "
                   "[--counts-file <f>] [--oracle-file <f>]\n"
                   "       aedbench --write-oracle <f> [--only <label>]\n");
      return 1;
    }
    return runBenchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aedbench: %s\n", e.what());
    return 2;
  }
}
