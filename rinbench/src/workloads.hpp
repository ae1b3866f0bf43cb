#pragma once

// The three workloads and the metric names they report.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "replay.hpp"

namespace rinkit::md {
class Protein;
}

namespace rinbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir; ///< where the span log is written (trace runs)
};

struct RunResult {
    MetricSheet metrics;              ///< every metric the run measured
    Tally tally;
    std::vector<std::string> notes;   ///< human-readable report lines
};

RunResult runDrag(const RunConfig& cfg);
RunResult runFleet(const RunConfig& cfg);
RunResult runPipeline(const RunConfig& cfg);

struct MetricSpec {
    std::string name;
    std::string unit;
};

/// BENCHMARK.json's "end_to_end" and "per_layer" metrics, in file order;
/// every run reports each of them in this unit.
const std::vector<MetricSpec>& endToEndMetrics();
const std::vector<MetricSpec>& perLayerMetrics();

// -- shared by the workloads -----------------------------------------------

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 7;
/// Deadline of an interactive event (drag and fleet).
inline constexpr double kDeadlineMs = 100.0;
/// Runs keep measuring past --seconds until they hold this many events, so
/// latency_p90_ms always has ten samples beyond it.
inline constexpr std::size_t kMinEvents = 100;

/// Fills the per-layer metrics of the interactive cycle from per-event
/// layer costs (replayed, or program-reported for fleet).
void fillCycleLayers(MetricSheet& m, const std::vector<LayerCost>& events);

/// Sets every per-layer metric that is still unset to 0: the layer does
/// no work on this workload.
void zeroUnsetLayers(MetricSheet& m);

/// Records scale.<kernel>.{t1_ms,tN_ms} on @p protein's RIN at 4.5 A,
/// setting the OpenMP thread count with omp_set_num_threads.
void measureScaling(MetricSheet& m, const rinkit::md::Protein& protein, SpanLog* log);

/// setup_s: the median of the set-up repetitions, listed in a note.
void fillSetup(MetricSheet& m, const std::vector<double>& setupSeconds, RunResult& r);

/// Common end-to-end latency fields from per-op latencies (ms).
void fillLatency(MetricSheet& m, const std::vector<double>& latencies, RunResult& r);

/// Writes @p log as <outDir>/trace-<workload>-<seed>.json.
void writeSpans(const RunConfig& cfg, const SpanLog& log, RunResult& r);

} // namespace rinbench
