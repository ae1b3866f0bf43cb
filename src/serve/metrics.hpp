#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "src/support/types.hpp"

namespace rinkit::serve {

/// The serving layer's monotonic event counters, one slot each in
/// MetricsRegistry's fixed table. Every snapshot lists all of them, zeros
/// included, under their exported names ("submitted", "measure_tier_exact",
/// ...; the table in metrics.cpp). The four MeasureTier* values follow
/// viz::ResolutionTier's order, so a tier indexes its counter directly.
/// WireBytes counts shipped bytes in whichever format a session uses; the
/// keyframe/delta split is counted for binary-wire sessions only.
enum class Counter : std::uint8_t {
    Submitted,
    Completed,
    Coalesced,
    Rejected,
    ShedDegraded,
    ShedStale,
    DeadlineMissed,
    SessionsOpened,
    FramesShipped,
    WireBytes,
    WireKeyframes,
    WireDeltaFrames,
    HandedOff, ///< pending slots leaving with a migrated session
    Adopted,   ///< pending slots arriving with a migrated session
    SessionsAdopted,
    MeasureTierExact,
    MeasureTierDynamic,
    MeasureTierApprox,
    MeasureTierStale,
    SloDegraded,
    Speculated, ///< == SpecHit + SpecMiss + SpecCancelled once speculation is idle
    SpecHit,
    SpecMiss,
    SpecCancelled,
    SpecCpuMs,
    LodPairsShipped,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::LodPairsShipped) + 1;

/// OpenMetrics-style exemplar: one concrete trace that landed in a
/// histogram bucket, so a percentile line on a dashboard links to an
/// actual retained span tree ("p99 is 40 ms — *this request* was 40 ms").
/// Last write per bucket wins; a zero trace id means no exemplar.
struct Exemplar {
    std::uint64_t traceId = 0;
    double valueMs = 0.0;    ///< the recorded sample
    double timestampUs = 0.0; ///< tracer clock at record time

    bool valid() const { return traceId != 0; }
};

/// Fixed-memory latency histogram with logarithmically scaled bins.
///
/// Serving-latency distributions are heavy-tailed (a cache-hit measure
/// update is microseconds, an exact Brandes recompute on a large RIN is
/// seconds), so the bins grow geometrically: 25% per bin from 1 us up to
/// ~28 minutes. Percentile queries interpolate inside the winning bin and
/// are clamped to the exact observed maximum, so p100 is always the true
/// max and low-count histograms don't overshoot.
class LatencyHistogram {
public:
    static constexpr std::size_t kBins = 96;
    static constexpr double kFirstUpperMs = 0.001; ///< bin 0: [0, 1us)
    static constexpr double kGrowth = 1.25;

    /// Records one latency sample (negative values clamp to 0).
    void record(double ms);

    /// record() plus an exemplar: the sample's bucket remembers this trace
    /// id (last write wins). A zero @p traceId records without exemplar.
    void record(double ms, std::uint64_t traceId, double timestampUs);

    /// Folds @p other into this histogram at raw-bin granularity, so
    /// percentiles over the merged distribution are as accurate as if every
    /// sample had been recorded here (no stats-level approximation).
    void merge(const LatencyHistogram& other);

    /// Value at percentile @p p in [0, 100] (0 with no samples).
    double percentile(double p) const;

    count samples() const { return count_; }
    double meanMs() const { return count_ == 0 ? 0.0 : sumMs_ / static_cast<double>(count_); }
    double maxMs() const { return maxMs_; }
    double minMs() const { return count_ == 0 ? 0.0 : minMs_; }

    /// The exemplar nearest to @p ms: the exemplar of ms's own bucket if
    /// it has one, else of the closest bucket that does (invalid Exemplar
    /// when none). This is how quantile exposition lines pick the trace to
    /// cite for p50/p95/p99.
    Exemplar exemplarNear(double ms) const;

private:
    static double upperEdgeMs(std::size_t bin);
    static std::size_t binOf(double ms);

    std::array<count, kBins> bins_{};
    std::array<Exemplar, kBins> exemplars_{};
    count count_ = 0;
    double sumMs_ = 0.0;
    double maxMs_ = 0.0;
    double minMs_ = 0.0;
};

/// Point-in-time copy of every metric the registry holds; safe to read
/// without locks and serializable for benchmark/ops output.
struct MetricsSnapshot {
    struct HistogramStats {
        count samples = 0;
        double meanMs = 0.0;
        double maxMs = 0.0;
        double p50Ms = 0.0;
        double p95Ms = 0.0;
        double p99Ms = 0.0;
        /// Exemplars near each quantile (invalid when the buckets have
        /// none, or the registry's exemplar filter rejected them).
        Exemplar p50Ex;
        Exemplar p95Ex;
        Exemplar p99Ex;
    };

    std::map<std::string, HistogramStats> histograms; ///< keyed by phase name
    std::map<std::string, count> counters;
    count queueDepth = 0;    ///< total queued requests at snapshot time
    count queueDepthMax = 0; ///< high-water mark since construction
    /// Which replica this snapshot describes ("0", "1", ...). Empty for a
    /// single-instance service and for the aggregate view over a replica
    /// set, so pre-replication consumers see unchanged output.
    std::string replica;

    count counter(const std::string& name) const {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /// One JSON object: {"histograms": {...}, "counters": {...},
    /// "queue_depth": n, "queue_depth_max": n} plus a "replica" key when
    /// the label is non-empty (absent otherwise — existing consumers see
    /// byte-identical output).
    std::string toJson() const;
};

/// Thread-safe metrics sink for the serving layer: per-phase latency
/// histograms, the fixed Counter table, and a queue-depth gauge with
/// high-water mark. Phase names follow the widget's update-cycle
/// decomposition ("queue_ms", "network_update_ms", "layout_ms",
/// "measure_ms", "scene_build_ms", "serialize_ms", "server_ms",
/// "total_ms"). Counters are lock-free atomics; histograms and the gauge
/// share one mutex.
class MetricsRegistry {
public:
    void recordLatency(std::string_view phase, double ms);
    /// recordLatency() plus an exemplar (zero @p traceId = no exemplar).
    void recordLatency(std::string_view phase, double ms, std::uint64_t traceId,
                       double timestampUs);
    void increment(Counter c, count by = 1) {
        counters_[static_cast<std::size_t>(c)].fetch_add(by, std::memory_order_relaxed);
    }

    /// Sets the current total queue depth; tracks the maximum seen.
    void gaugeQueueDepth(count depth);

    /// Stamps every snapshot this registry produces with a replica id.
    void setReplicaLabel(std::string label);

    /// Snapshot-time exemplar gate: an exemplar whose trace id fails
    /// @p keep is dropped from HistogramStats (the buckets keep theirs).
    /// The serving layer wires this to TailSampler::isRetained, which
    /// makes "every exported exemplar names a retained trace" structural —
    /// an evicted trace's exemplars vanish at the next scrape instead of
    /// dangling.
    void setExemplarFilter(std::function<bool(std::uint64_t)> keep);

    /// Folds @p other into this registry: counters sum, histograms merge at
    /// raw-bin granularity, queue depths add (the aggregate backlog is the
    /// sum of the replicas'; the merged high-water is the sum of per-source
    /// high-waters — an upper bound, since the maxima need not coincide).
    /// The replica label is NOT merged: an aggregate stays aggregate.
    /// @p other may be under concurrent use; self-merge is a no-op.
    void merge(const MetricsRegistry& other);

    MetricsSnapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, LatencyHistogram, std::less<>> histograms_;
    std::array<std::atomic<count>, kNumCounters> counters_{};
    count queueDepth_ = 0;
    count queueDepthMax_ = 0;
    std::string replicaLabel_;
    std::function<bool(std::uint64_t)> exemplarFilter_;
};

} // namespace rinkit::serve
