// Machine-readable metrics export (introspection layer, DESIGN.md §12).
//
// Two formats over the same MetricsRegistry snapshot:
//
//  - Prometheus text exposition format (version 0.0.4): names sanitized
//    ('.' and other non-[a-zA-Z0-9_:] characters become '_'), one `# TYPE`
//    line per family; histograms emit cumulative `_bucket{le="..."}` series
//    for every non-empty bucket plus `+Inf`, and `_sum` / `_count`. A scrape
//    endpoint or promtool can consume the file as-is.
//
//  - JSON snapshot: an object with a `metrics` array; each entry carries
//    name/kind/value, and histograms additionally count/sum, p50/p90/p99
//    estimates, and their non-empty buckets as [lowerBound, upperBound,
//    count] triples. Self-describing, so dashboards and the aed_check sweep
//    report can embed it without knowing the bucket scheme.
//
// `aed_cli --metrics-out <file>` and the AED_METRICS_OUT environment
// variable (honored by every bench and by aed_check) route through
// exportMetricsFile(), which picks JSON for paths ending in ".json" and
// Prometheus text otherwise.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace aed {

/// The body of a JSON string literal for `text` (no surrounding quotes): `"`
/// and `\` are backslash-escaped, \n \r \t use their short escapes, other
/// control characters become \u00XX, and every other byte — non-ASCII UTF-8
/// included — passes through unchanged. The one escaper every JSON writer in
/// the engine uses (trace export, flight dumps, metrics, fuzz reports).
std::string jsonEscape(std::string_view text);

/// Renders samples in Prometheus text exposition format.
std::string metricsToPrometheus(
    const std::vector<MetricsRegistry::Sample>& samples);

/// Renders samples as a self-describing JSON snapshot.
std::string metricsToJson(
    const std::vector<MetricsRegistry::Sample>& samples);

/// The bare JSON array of metric objects (what metricsToJson wraps) — for
/// embedding in larger documents (flight dumps, the aed_check sweep report).
std::string metricsToJsonArray(
    const std::vector<MetricsRegistry::Sample>& samples);

/// Writes the global registry's snapshot to `path` — JSON when the path ends
/// in ".json", Prometheus text otherwise. Returns false when the file cannot
/// be written.
bool exportMetricsFile(const std::string& path);

}  // namespace aed
