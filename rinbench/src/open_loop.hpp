#pragma once

// The fleet workload's open-loop load generator. The calling thread is the
// generator: it sends each arrival at its due time whatever the endpoint
// is doing. One harvester thread collects the futures. Every event is timed
// from when it was due, not from when it was sent, so a stalled submit
// charges its wait to the events queued behind it, and the generator's own
// lateness is reported beside the latencies.

#include <vector>

#include "common.hpp"
#include "src/serve/service_endpoint.hpp"

namespace rinbench {

struct Arrival {
    double dueMs = 0.0; ///< offset from the start of the run
    rinkit::serve::SessionId session = 0;
    rinkit::serve::SliderEvent event;
};

struct ArrivalResult {
    double dueMs = 0.0;
    double sentMs = 0.0;      ///< generator called submit
    double submittedMs = 0.0; ///< submit returned
    double doneMs = 0.0;      ///< harvester saw the future ready
    int resolutions = 0;      ///< times the future delivered a result
    bool threw = false;       ///< submit or get threw
    rinkit::serve::RequestOutcome outcome;

    double latencyMs() const { return doneMs - dueMs; }
    double lateMs() const { return sentMs - dueMs; }
};

struct OpenLoopResult {
    std::vector<ArrivalResult> results; ///< one per arrival, schedule order
    double windowMs = 0.0;              ///< start to the last resolution
    std::uint64_t inflightMax = 0;      ///< most sent-but-unresolved events
    std::uint64_t unresolved = 0;       ///< futures not ready by the timeout
};

/// Drives @p endpoint with @p schedule (sorted by due time). Futures still
/// unresolved @p resolveTimeoutMs after the last send are counted, not
/// waited for. With @p log, each submit is recorded as a "serve.submit"
/// span (the log is touched by the generator thread only).
OpenLoopResult runOpenLoop(rinkit::serve::ServiceEndpoint& endpoint,
                           const std::vector<Arrival>& schedule, double resolveTimeoutMs,
                           SpanLog* log = nullptr);

/// The generator fell behind its schedule by more than this at p99: the
/// arrival process was not the one asked for, so the run is invalid.
inline constexpr double kMaxGeneratorLateP99Ms = 25.0;

} // namespace rinbench
