#include "src/serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "src/support/json.hpp"

namespace rinkit::serve {

namespace {

/// Exported name of each Counter, in enum order.
constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "submitted",          "completed",          "coalesced",
    "rejected",           "shed_degraded",      "shed_stale",
    "deadline_missed",    "sessions_opened",    "frames_shipped",
    "wire_bytes",         "wire_keyframes",     "wire_delta_frames",
    "handed_off",         "adopted",            "sessions_adopted",
    "measure_tier_exact", "measure_tier_dynamic", "measure_tier_approx",
    "measure_tier_stale", "slo_degraded",       "speculated",
    "spec_hit",           "spec_miss",          "spec_cancelled",
    "spec_cpu_ms",        "lod_pairs_shipped",
};
static_assert(!kCounterNames.back().empty(), "one name per Counter");

} // namespace

double LatencyHistogram::upperEdgeMs(std::size_t bin) {
    return kFirstUpperMs * std::pow(kGrowth, static_cast<double>(bin));
}

std::size_t LatencyHistogram::binOf(double ms) {
    // Direct index computation: bin i holds [upper(i-1), upper(i)).
    std::size_t bin = 0;
    if (ms >= kFirstUpperMs) {
        bin = static_cast<std::size_t>(std::log(ms / kFirstUpperMs) / std::log(kGrowth)) + 1;
        bin = std::min(bin, kBins - 1);
        // Guard against floating-point edge cases at bin boundaries.
        while (bin > 0 && ms < upperEdgeMs(bin - 1)) --bin;
        while (bin + 1 < kBins && ms >= upperEdgeMs(bin)) ++bin;
    }
    return bin;
}

void LatencyHistogram::record(double ms) { record(ms, 0, 0.0); }

void LatencyHistogram::record(double ms, std::uint64_t traceId, double timestampUs) {
    ms = std::max(ms, 0.0);
    const std::size_t bin = binOf(ms);
    ++bins_[bin];
    if (traceId != 0) exemplars_[bin] = Exemplar{traceId, ms, timestampUs};
    minMs_ = count_ == 0 ? ms : std::min(minMs_, ms);
    ++count_;
    sumMs_ += ms;
    maxMs_ = std::max(maxMs_, ms);
}

Exemplar LatencyHistogram::exemplarNear(double ms) const {
    const std::size_t bin = binOf(std::max(ms, 0.0));
    // Scan outward from the target bucket; nearest wins, lower bin on tie
    // (a slightly-faster exemplar is a fairer citation than a slower one).
    for (std::size_t d = 0; d < kBins; ++d) {
        if (bin >= d && exemplars_[bin - d].valid()) return exemplars_[bin - d];
        if (bin + d < kBins && exemplars_[bin + d].valid()) return exemplars_[bin + d];
    }
    return {};
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t bin = 0; bin < kBins; ++bin) {
        bins_[bin] += other.bins_[bin];
        // Per-bucket last-write-wins carries over: the newer exemplar is
        // the one a dashboard should cite.
        if (other.exemplars_[bin].valid() &&
            (!exemplars_[bin].valid() ||
             other.exemplars_[bin].timestampUs > exemplars_[bin].timestampUs))
            exemplars_[bin] = other.exemplars_[bin];
    }
    minMs_ = count_ == 0 ? other.minMs_ : std::min(minMs_, other.minMs_);
    count_ += other.count_;
    sumMs_ += other.sumMs_;
    maxMs_ = std::max(maxMs_, other.maxMs_);
}

double LatencyHistogram::percentile(double p) const {
    if (count_ == 0) return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Nearest-rank within the cumulative bin counts.
    const double rank = p / 100.0 * static_cast<double>(count_);
    const count target = std::max<count>(1, static_cast<count>(std::ceil(rank)));
    count seen = 0;
    for (std::size_t bin = 0; bin < kBins; ++bin) {
        seen += bins_[bin];
        if (seen >= target) {
            const double lower = bin == 0 ? 0.0 : upperEdgeMs(bin - 1);
            const double upper = upperEdgeMs(bin);
            // Geometric midpoint of the winning bin, clamped to the
            // observed range so sparse histograms never report a value
            // outside what was actually recorded.
            const double mid = bin == 0 ? upper / 2.0 : std::sqrt(lower * upper);
            return std::clamp(mid, minMs_, maxMs_);
        }
    }
    return maxMs_;
}

void MetricsRegistry::recordLatency(std::string_view phase, double ms) {
    recordLatency(phase, ms, 0, 0.0);
}

void MetricsRegistry::recordLatency(std::string_view phase, double ms, std::uint64_t traceId,
                                    double timestampUs) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(phase);
    if (it == histograms_.end()) it = histograms_.emplace(std::string(phase), LatencyHistogram{}).first;
    it->second.record(ms, traceId, timestampUs);
}

void MetricsRegistry::gaugeQueueDepth(count depth) {
    std::lock_guard<std::mutex> lock(mutex_);
    queueDepth_ = depth;
    queueDepthMax_ = std::max(queueDepthMax_, depth);
}

void MetricsRegistry::setReplicaLabel(std::string label) {
    std::lock_guard<std::mutex> lock(mutex_);
    replicaLabel_ = std::move(label);
}

void MetricsRegistry::setExemplarFilter(std::function<bool(std::uint64_t)> keep) {
    std::lock_guard<std::mutex> lock(mutex_);
    exemplarFilter_ = std::move(keep);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
    if (&other == this) return;
    for (std::size_t i = 0; i < kNumCounters; ++i)
        counters_[i].fetch_add(other.counters_[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
    // Copy the source under its own lock, then fold in under ours — never
    // both locks at once, so there is no ordering to get wrong when two
    // registries merge concurrently.
    std::map<std::string, LatencyHistogram, std::less<>> histograms;
    count depth = 0;
    count depthMax = 0;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        histograms = other.histograms_;
        depth = other.queueDepth_;
        depthMax = other.queueDepthMax_;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, h] : histograms) histograms_[name].merge(h);
    queueDepth_ += depth;
    queueDepthMax_ += depthMax;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    const auto filtered = [this](Exemplar ex) {
        if (ex.valid() && exemplarFilter_ && !exemplarFilter_(ex.traceId)) return Exemplar{};
        return ex;
    };
    for (const auto& [name, h] : histograms_) {
        MetricsSnapshot::HistogramStats s;
        s.samples = h.samples();
        s.meanMs = h.meanMs();
        s.maxMs = h.maxMs();
        s.p50Ms = h.percentile(50.0);
        s.p95Ms = h.percentile(95.0);
        s.p99Ms = h.percentile(99.0);
        s.p50Ex = filtered(h.exemplarNear(s.p50Ms));
        s.p95Ex = filtered(h.exemplarNear(s.p95Ms));
        s.p99Ex = filtered(h.exemplarNear(s.p99Ms));
        snap.histograms.emplace(name, s);
    }
    for (std::size_t i = 0; i < kNumCounters; ++i)
        snap.counters.emplace(kCounterNames[i],
                              counters_[i].load(std::memory_order_relaxed));
    snap.queueDepth = queueDepth_;
    snap.queueDepthMax = queueDepthMax_;
    snap.replica = replicaLabel_;
    return snap;
}

std::string MetricsSnapshot::toJson() const {
    JsonWriter w;
    w.beginObject();
    w.key("histograms").beginObject();
    for (const auto& [name, s] : histograms) {
        w.key(name).beginObject();
        w.kv("count", s.samples);
        w.kv("mean_ms", s.meanMs);
        w.kv("max_ms", s.maxMs);
        w.kv("p50_ms", s.p50Ms);
        w.kv("p95_ms", s.p95Ms);
        w.kv("p99_ms", s.p99Ms);
        const auto exemplar = [&w](const char* k, const Exemplar& ex) {
            if (!ex.valid()) return;
            w.key(k).beginObject();
            w.kv("trace_id", static_cast<unsigned long long>(ex.traceId));
            w.kv("value_ms", ex.valueMs);
            w.kv("t_us", ex.timestampUs);
            w.endObject();
        };
        exemplar("p50_exemplar", s.p50Ex);
        exemplar("p95_exemplar", s.p95Ex);
        exemplar("p99_exemplar", s.p99Ex);
        w.endObject();
    }
    w.endObject();
    w.key("counters").beginObject();
    for (const auto& [name, v] : counters) w.kv(name, v);
    w.endObject();
    w.kv("queue_depth", queueDepth);
    w.kv("queue_depth_max", queueDepthMax);
    if (!replica.empty()) w.kv("replica", replica);
    w.endObject();
    return w.str();
}

} // namespace rinkit::serve
