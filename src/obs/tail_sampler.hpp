#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/obs/slo.hpp"
#include "src/obs/trace.hpp"

namespace rinkit::obs {

/// Why a finished request trace was kept (None = discarded).
enum class RetainReason {
    None = 0,
    DeadlineMiss, ///< the request blew its interactivity deadline
    Shed,         ///< admission control rejected it
    Degraded,     ///< served from a degraded ladder rung
    Outlier,      ///< duration above the rolling p99 of recent roots
    Baseline,     ///< uniform 1-in-N keep (the healthy-path reference set)
};

const char* retainReasonName(RetainReason reason);

/// One kept trace: the complete span tree plus why it was kept.
struct RetainedTrace {
    std::uint64_t traceId = 0;
    RetainReason reason = RetainReason::None;
    double finishedUs = 0.0; ///< tracer clock at the retention decision
    double durationMs = 0.0;
    std::vector<SpanRecord> spans; ///< root + children, arrival order
};

struct TailSamplerOptions {
    std::size_t maxRetained = 256;      ///< retained ring bound (oldest evicts)
    std::size_t maxPending = 4096;      ///< concurrently buffered open roots
    std::size_t maxSpansPerTrace = 256; ///< per-trace buffer bound
    count baselineEvery = 32;           ///< uniform keep: every Nth finished root
    double outlierPercentile = 99.0;    ///< rolling-outlier threshold
    std::size_t outlierWindow = 512;    ///< durations the rolling window holds
    count minOutlierSamples = 64;       ///< no outlier calls before this many
};

/// Tail-based trace retention: buffer every request root's complete span
/// tree while it runs, then decide at completion — when the outcome is
/// known — whether the tree is worth keeping. Retention policy, in
/// priority order: deadline misses, shed/rejected, degraded-tier answers,
/// rolling-p99 duration outliers, and a uniform 1-in-N baseline of
/// healthy requests (so slow traces always have a healthy reference to
/// diff against).
///
/// This replaces head sampling *for request roots only*: the serving
/// layer mints request roots with Sample::Force while a sampler is
/// attached (the head draw never sees them), buffers their spans here via
/// the tracer's span sink, and calls finish() with the outcome. Non-
/// request spans (widget calls outside the serving layer, bench loops)
/// keep the head-sampling policy unchanged.
///
/// Concurrency: open()/onSpan()/finish() run on service and worker
/// threads while retained()/isRetained()/stats() run on scrapers and
/// autoscaler ticks — everything serializes on one internal mutex, and
/// the retained ring is bounded, so concurrent retain/evict/export is
/// safe (the --obs TSan leg stresses exactly this).
class TailSampler : public SpanSink {
public:
    explicit TailSampler(TailSamplerOptions options = {});
    ~TailSampler() override;

    /// Registers this sampler as the global tracer's span sink so buffered
    /// request spans reach the pending traces. The sampler must outlive
    /// recording (uninstall() or destruction after services drain).
    void install();
    void uninstall();

    /// Marks @p traceId as a buffered request root: subsequent spans of
    /// this trace are copied into its pending buffer. Above maxPending the
    /// trace is not buffered (finish() still rules on the verdict; the
    /// retained tree is just root-only).
    void open(std::uint64_t traceId);

    /// The root finished as @p request: rules on retention and returns the
    /// reason (None = discarded, pending buffer dropped).
    RetainReason finish(std::uint64_t traceId, const FinishedRequest& request);

    /// True while @p traceId sits in the retained ring (false once
    /// evicted). The exemplar filter: exemplars must only name ids this
    /// returns true for.
    bool isRetained(std::uint64_t traceId) const;

    /// Oldest-first copy of the retained ring.
    std::vector<RetainedTrace> retained() const;
    std::vector<std::uint64_t> retainedIds() const;

    /// Every span of every retained trace, start-time sorted — feed to
    /// writeChromeTrace for a "only the traces worth reading" export.
    std::vector<SpanRecord> retainedSpans() const;

    struct Stats {
        count opened = 0;
        count finished = 0;
        count discarded = 0;
        count evicted = 0; ///< retained then pushed out by the ring bound
        count pendingOverflow = 0;
        count droppedSpans = 0; ///< spans beyond maxSpansPerTrace
        count retainedDeadlineMiss = 0;
        count retainedShed = 0;
        count retainedDegraded = 0;
        count retainedOutlier = 0;
        count retainedBaseline = 0;

        count retainedTotal() const {
            return retainedDeadlineMiss + retainedShed + retainedDegraded +
                   retainedOutlier + retainedBaseline;
        }
    };
    Stats stats() const;

    std::size_t pendingCount() const;

    /// Drops pending and retained traces and resets stats.
    void clear();

    /// SpanSink: called by Tracer::push for every recorded span.
    void onSpan(const SpanRecord& record) override;

    const TailSamplerOptions& options() const { return options_; }

private:
    bool isOutlierLocked(double durationMs) const;

    TailSamplerOptions options_;

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, std::vector<SpanRecord>> pending_;
    std::deque<RetainedTrace> retained_;
    std::unordered_set<std::uint64_t> retainedIds_;
    std::vector<double> durations_; ///< rolling window (circular)
    std::size_t durationNext_ = 0;
    std::size_t durationCount_ = 0;
    count baselineCounter_ = 0;
    Stats stats_;
};

} // namespace rinkit::obs
