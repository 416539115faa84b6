// aed_check: the differential-fuzzing and invariant-checking harness CLI.
//
// Fuzz mode (default) sweeps a deterministic seed range, builds one
// synthesize→apply→simulate scenario per seed (src/check/scenario.hpp),
// checks the differential and metamorphic invariant catalog
// (src/check/invariants.hpp), delta-debugs any failure down to a minimal
// counterexample, and writes each one as a self-contained repro file:
//
//   aed_check [--seeds <count>] [--seed-start <n>] [--budget-s <seconds>]
//             [--invariants all|cheap|<name,...>] [--profile smoke|nightly]
//             [--expensive-every <n>] [--inject "<kind> [key=value]..."]
//             [--no-shrink] [--max-shrink-attempts <n>]
//             [--out-dir <dir>] [--json <file>|-] [--quiet]
//
// Replay mode re-runs repro files (shrinker output, or the checked-in
// regression corpus under tests/corpus/):
//
//   aed_check --repro <file> [--repro <file>]... [--invariants <names>]
//
// Knobs:
//   --budget-s          stop starting new seeds after this much wall clock
//   --expensive-every   run the four expensive invariants (incremental-equiv,
//                       resynth-noop, workers-equiv, input-holds) on every
//                       Nth seed only (default 4; 0 = never)
//   --inject            poison every scenario with a deterministic fault
//                       (repro `fault` grammar, e.g. "stage-commit" or
//                       "reject-validation rounds=2") — used to prove the
//                       harness detects, shrinks, and replays real failures
//   --json              write the machine-readable sweep report (CI artifact)
//   --out-dir           where minimized repro files land (default ".")
//   --export-seed <n>   write the generated scenario for seed n as
//                       seed<n>.repro in --out-dir (no checking) and exit —
//                       how corpus entries under tests/corpus/ are made
//
// The environment variable AED_TEST_SEED, when set and --seed-start is not
// given, overrides the base seed; the effective base seed is always printed
// so any CI log line is enough to reproduce a run.
//
// Exit codes: 0 clean sweep / all repros pass, 1 usage error, 2 internal
// error, 4 invariant violations found (repro files written).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "check/fuzz.hpp"
#include "check/repro.hpp"
#include "obs/export.hpp"
#include "util/error.hpp"

namespace {

using namespace aed;
using namespace aed::check;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw AedError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Exports the metrics registry when AED_METRICS_OUT is set; called on
/// every exit path of the sweep so CI always gets its snapshot artifact.
void exportMetricsIfRequested() {
  const char* env = std::getenv("AED_METRICS_OUT");
  if (env == nullptr || *env == '\0') return;
  if (!aed::exportMetricsFile(env)) {
    std::cerr << "error: cannot write metrics file: " << env << "\n";
  }
}

int usage() {
  std::cerr
      << "usage: aed_check [--seeds <count>] [--seed-start <n>]\n"
         "                 [--budget-s <seconds>] [--profile smoke|nightly]\n"
         "                 [--invariants all|cheap|<name,...>]\n"
         "                 [--expensive-every <n>]\n"
         "                 [--inject \"<kind> [key=value]...\"]\n"
         "                 [--no-shrink] [--max-shrink-attempts <n>]\n"
         "                 [--out-dir <dir>] [--json <file>|-] [--quiet]\n"
         "                 [--export-seed <n>]\n"
         "       aed_check --repro <file> [--repro <file>]...\n"
         "                 [--invariants <name,...>]\n";
  return 1;
}

std::uint64_t parseU64(const std::string& value, const std::string& flag) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw AedError("invalid " + flag + " value: " + value);
  }
  return std::stoull(value);
}

void printFailures(const std::string& where,
                   const std::vector<InvariantFailure>& failures) {
  for (const InvariantFailure& failure : failures) {
    std::cerr << "FAIL " << where << ": " << invariantName(failure.invariant)
              << " (" << failure.category << "): " << failure.detail << "\n";
  }
}

/// Replays repro files; the invariant selection comes from each file unless
/// overridden on the command line.
int replay(const std::vector<std::string>& files,
           std::optional<InvariantMask> override, bool quiet) {
  bool anyFailure = false;
  for (const std::string& file : files) {
    const Repro repro = parseRepro(readFile(file));
    const InvariantMask selected = override.value_or(repro.invariants);
    const CheckOutcome outcome = checkScenario(repro.scenario, selected);
    if (!quiet) {
      std::cout << file << ": " << repro.scenario.label << " — "
                << (outcome.passed() ? "pass" : "FAIL") << " ("
                << invariantMaskToString(outcome.checked) << " checked"
                << (outcome.note.empty() ? "" : ", " + outcome.note) << ")\n";
    }
    printFailures(file, outcome.failures);
    anyFailure |= !outcome.passed();
  }
  return anyFailure ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Export the metrics snapshot on every exit path (including exceptions)
  // when AED_METRICS_OUT is set.
  struct MetricsAtExit {
    ~MetricsAtExit() { exportMetricsIfRequested(); }
  } metricsAtExit;
  FuzzOptions options;
  options.seedCount = 500;
  std::optional<InvariantMask> invariantsFlag;
  std::vector<std::string> reproFiles;
  std::string outDir = ".";
  std::string jsonPath;
  std::optional<std::uint64_t> exportSeed;
  bool quiet = false;
  bool seedStartGiven = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw AedError("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--seeds") options.seedCount = parseU64(value(), arg);
      else if (arg == "--seed-start") {
        options.seedStart = parseU64(value(), arg);
        seedStartGiven = true;
      }
      else if (arg == "--budget-s") {
        options.budgetSeconds = static_cast<double>(parseU64(value(), arg));
      }
      else if (arg == "--invariants") {
        invariantsFlag = invariantMaskFromString(value());
      }
      else if (arg == "--profile") {
        const std::string v = value();
        if (v == "smoke") options.profile = ScenarioProfile::smoke();
        else if (v == "nightly") options.profile = ScenarioProfile::nightly();
        else throw AedError("unknown --profile (smoke|nightly): " + v);
      }
      else if (arg == "--expensive-every") {
        options.expensiveEvery = parseU64(value(), arg);
      }
      else if (arg == "--inject") options.inject = parseFaultSpec(value());
      else if (arg == "--no-shrink") options.shrink = false;
      else if (arg == "--max-shrink-attempts") {
        options.shrinkOptions.maxAttempts =
            static_cast<std::size_t>(parseU64(value(), arg));
      }
      else if (arg == "--out-dir") outDir = value();
      else if (arg == "--export-seed") exportSeed = parseU64(value(), arg);
      else if (arg == "--json") jsonPath = value();
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--repro") reproFiles.push_back(value());
      else return usage();
    } catch (const AedError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    if (!reproFiles.empty()) {
      return replay(reproFiles, invariantsFlag, quiet);
    }

    if (invariantsFlag.has_value()) options.invariants = *invariantsFlag;
    if (exportSeed.has_value()) {
      const Scenario scenario = makeScenario(*exportSeed, options.profile);
      const std::string path =
          outDir + "/seed" + std::to_string(*exportSeed) + ".repro";
      std::ofstream out(path);
      if (!out) throw AedError("cannot write repro file: " + path);
      out << writeRepro(scenario,
                        invariantsFlag.value_or(kCheapInvariants));
      std::cout << scenario.label << " written to " << path << "\n";
      return 0;
    }
    if (!seedStartGiven) {
      if (const char* env = std::getenv("AED_TEST_SEED");
          env != nullptr && *env != '\0') {
        options.seedStart = parseU64(env, "AED_TEST_SEED");
      }
    }
    if (!quiet) {
      options.onEvent = [](std::uint64_t seed, const std::string& message) {
        std::cerr << "seed " << seed << ": " << message << "\n";
      };
    }

    std::cout << "aed_check: seeds " << options.seedStart << ".."
              << options.seedStart + options.seedCount - 1 << " (base seed "
              << options.seedStart << "), invariants "
              << invariantMaskToString(options.invariants)
              << ", expensive-every " << options.expensiveEvery << "\n";

    const FuzzReport report = [&] {
      FuzzReport r = runFuzz(options);
      // Write each minimized counterexample next to the report before the
      // JSON is rendered, so the artifact records where the repros landed.
      // Each repro gets its flight dump beside it: the recorder's view of
      // the failing scenario (spans, log tail, metrics at failure time).
      for (FuzzFailure& failure : r.failures) {
        const std::string stem = "crash-seed" + std::to_string(failure.seed) +
                                 "-" +
                                 invariantName(failure.failure.invariant);
        const std::string path = outDir + "/" + stem + ".repro";
        std::ofstream out(path);
        if (!out) throw AedError("cannot write repro file: " + path);
        out << failure.repro;
        failure.reproFile = path;
        if (!failure.flightDump.empty()) {
          const std::string dumpPath = outDir + "/" + stem + ".flight.json";
          std::ofstream dump(dumpPath);
          if (dump) {
            dump << failure.flightDump;
            failure.flightDumpFile = dumpPath;
          } else {
            std::cerr << "error: cannot write flight dump: " << dumpPath
                      << "\n";
          }
        }
      }
      return r;
    }();

    std::cout << "checked " << report.seedsRun << " scenarios ("
              << report.invariantChecks << " invariant checks, "
              << report.skippedChecks << " skipped, " << report.synthesized
              << " synthesized, " << report.unsatScenarios << " unsat) in "
              << report.seconds << "s"
              << (report.budgetExhausted ? " [budget exhausted]" : "") << "\n";
    if (!quiet) {
      for (const auto& [name, count] : report.checksByInvariant) {
        std::cout << "  " << name << ": " << count << "\n";
      }
    }
    for (const FuzzFailure& failure : report.failures) {
      std::cerr << "FAIL seed " << failure.seed << ": "
                << invariantName(failure.failure.invariant) << " ("
                << failure.failure.category << "): " << failure.failure.detail
                << "\n  minimized to " << failure.shrinkStats.routersAfter
                << " routers / " << failure.shrinkStats.policiesAfter
                << " policies — repro: " << failure.reproFile
                << (failure.flightDumpFile.empty()
                        ? ""
                        : ", flight dump: " + failure.flightDumpFile)
                << "\n";
    }

    if (!jsonPath.empty()) {
      if (jsonPath == "-") {
        std::cout << report.toJson();
      } else {
        std::ofstream out(jsonPath);
        if (!out) throw AedError("cannot write file: " + jsonPath);
        out << report.toJson();
        std::cout << "report written to " << jsonPath << "\n";
      }
    }
    return report.clean() ? 0 : 4;
  } catch (const AedError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
