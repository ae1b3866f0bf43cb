#include "src/obs/tail_sampler.hpp"

#include <algorithm>
#include <cmath>

namespace rinkit::obs {

const char* retainReasonName(RetainReason reason) {
    switch (reason) {
    case RetainReason::None: return "none";
    case RetainReason::DeadlineMiss: return "deadline_miss";
    case RetainReason::Shed: return "shed";
    case RetainReason::Degraded: return "degraded";
    case RetainReason::Outlier: return "outlier";
    case RetainReason::Baseline: return "baseline";
    }
    return "?";
}

TailSampler::TailSampler(TailSamplerOptions options) : options_(options) {
    options_.maxRetained = std::max<std::size_t>(1, options_.maxRetained);
    options_.maxPending = std::max<std::size_t>(1, options_.maxPending);
    options_.maxSpansPerTrace = std::max<std::size_t>(1, options_.maxSpansPerTrace);
    options_.outlierWindow = std::max<std::size_t>(8, options_.outlierWindow);
    options_.outlierPercentile = std::clamp(options_.outlierPercentile, 50.0, 100.0);
    durations_.assign(options_.outlierWindow, 0.0);
}

TailSampler::~TailSampler() { uninstall(); }

void TailSampler::install() {
    // Non-owning aliasing pointer: the tracer holds a handle, not a share
    // of ownership — the sampler's owner controls its lifetime and the
    // destructor detaches it.
    Tracer::global().setSpanSink(std::shared_ptr<SpanSink>(std::shared_ptr<SpanSink>{}, this));
}

void TailSampler::uninstall() {
    Tracer& tracer = Tracer::global();
    if (tracer.spanSink().get() == this) tracer.setSpanSink(nullptr);
}

void TailSampler::open(std::uint64_t traceId) {
    if (traceId == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.opened;
    if (pending_.count(traceId)) return;
    if (pending_.size() >= options_.maxPending) {
        // The verdict in finish() still rules; only the span tree is lost.
        ++stats_.pendingOverflow;
        return;
    }
    pending_.emplace(traceId, std::vector<SpanRecord>{});
}

void TailSampler::onSpan(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(record.traceId);
    if (it == pending_.end()) return;
    if (it->second.size() >= options_.maxSpansPerTrace) {
        ++stats_.droppedSpans;
        return;
    }
    it->second.push_back(record);
}

bool TailSampler::isOutlierLocked(double durationMs) const {
    if (durationCount_ < static_cast<std::size_t>(options_.minOutlierSamples)) return false;
    std::vector<double> window(durations_.begin(),
                               durations_.begin() + static_cast<long>(durationCount_));
    const std::size_t rank = std::min(
        window.size() - 1,
        static_cast<std::size_t>(std::floor(options_.outlierPercentile / 100.0 *
                                            static_cast<double>(window.size()))));
    std::nth_element(window.begin(), window.begin() + static_cast<long>(rank), window.end());
    return durationMs > window[rank];
}

RetainReason TailSampler::finish(std::uint64_t traceId, const FinishedRequest& request) {
    if (traceId == 0) return RetainReason::None;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.finished;

    std::vector<SpanRecord> spans;
    auto it = pending_.find(traceId);
    if (it != pending_.end()) {
        spans = std::move(it->second);
        pending_.erase(it);
    }

    // Priority order: the definite SLO violations first, then the
    // statistical outliers, then the uniform baseline. The outlier check
    // runs against the window *before* this duration joins it.
    RetainReason reason = RetainReason::None;
    if (request.deadlineMissed()) {
        reason = RetainReason::DeadlineMiss;
    } else if (request.rejected) {
        reason = RetainReason::Shed;
    } else if (request.degraded) {
        reason = RetainReason::Degraded;
    } else if (isOutlierLocked(request.latencyMs)) {
        reason = RetainReason::Outlier;
    } else if (options_.baselineEvery > 0 &&
               baselineCounter_++ % options_.baselineEvery == 0) {
        reason = RetainReason::Baseline;
    }

    // Only healthy, accepted requests feed the rolling window: shed
    // requests have no meaningful duration and known-bad ones would drag
    // the p99 up until real outliers stopped registering.
    if (!request.rejected && !request.deadlineMissed()) {
        durations_[durationNext_] = request.latencyMs;
        durationNext_ = (durationNext_ + 1) % durations_.size();
        durationCount_ = std::min(durationCount_ + 1, durations_.size());
    }

    if (reason == RetainReason::None) {
        ++stats_.discarded;
        return reason;
    }

    switch (reason) {
    case RetainReason::DeadlineMiss: ++stats_.retainedDeadlineMiss; break;
    case RetainReason::Shed: ++stats_.retainedShed; break;
    case RetainReason::Degraded: ++stats_.retainedDegraded; break;
    case RetainReason::Outlier: ++stats_.retainedOutlier; break;
    case RetainReason::Baseline: ++stats_.retainedBaseline; break;
    case RetainReason::None: break;
    }

    RetainedTrace trace;
    trace.traceId = traceId;
    trace.reason = reason;
    trace.finishedUs = Tracer::global().nowUs();
    trace.durationMs = request.latencyMs;
    trace.spans = std::move(spans);
    retained_.push_back(std::move(trace));
    retainedIds_.insert(traceId);
    while (retained_.size() > options_.maxRetained) {
        retainedIds_.erase(retained_.front().traceId);
        retained_.pop_front();
        ++stats_.evicted;
    }
    return reason;
}

bool TailSampler::isRetained(std::uint64_t traceId) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return retainedIds_.count(traceId) > 0;
}

std::vector<RetainedTrace> TailSampler::retained() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {retained_.begin(), retained_.end()};
}

std::vector<std::uint64_t> TailSampler::retainedIds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> ids;
    ids.reserve(retained_.size());
    for (const auto& t : retained_) ids.push_back(t.traceId);
    return ids;
}

std::vector<SpanRecord> TailSampler::retainedSpans() const {
    std::vector<SpanRecord> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& t : retained_)
            out.insert(out.end(), t.spans.begin(), t.spans.end());
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord& a, const SpanRecord& b) { return a.startUs < b.startUs; });
    return out;
}

TailSampler::Stats TailSampler::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t TailSampler::pendingCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

void TailSampler::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.clear();
    retained_.clear();
    retainedIds_.clear();
    std::fill(durations_.begin(), durations_.end(), 0.0);
    durationNext_ = 0;
    durationCount_ = 0;
    baselineCounter_ = 0;
    stats_ = Stats{};
}

} // namespace rinkit::obs
