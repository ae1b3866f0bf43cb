#include "open_loop.hpp"

#include <atomic>
#include <future>
#include <mutex>
#include <thread>

namespace rinbench {

using namespace rinkit;

OpenLoopResult runOpenLoop(serve::ServiceEndpoint& endpoint,
                           const std::vector<Arrival>& schedule, double resolveTimeoutMs,
                           SpanLog* log) {
    OpenLoopResult out;
    out.results.resize(schedule.size());
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto at = [&] {
        return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    };

    struct Pending {
        std::size_t index;
        std::future<serve::RequestOutcome> future;
    };
    std::mutex handoffMutex;
    std::vector<Pending> handoff; // guarded by handoffMutex
    std::atomic<bool> generatorDone{false};
    std::atomic<double> lastSentMs{0.0};
    std::atomic<std::uint64_t> resolved{0};

    // Harvester: polls every outstanding future, so a slow event of one
    // session never delays noticing a fast one of another.
    std::thread harvester([&] {
        std::vector<Pending> local;
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(handoffMutex);
                for (Pending& p : handoff) local.push_back(std::move(p));
                handoff.clear();
            }
            bool progressed = false;
            for (std::size_t i = 0; i < local.size();) {
                if (local[i].future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++i;
                    continue;
                }
                ArrivalResult& r = out.results[local[i].index];
                r.doneMs = at();
                try {
                    r.outcome = local[i].future.get();
                    ++r.resolutions;
                } catch (...) {
                    r.threw = true;
                }
                resolved.fetch_add(1, std::memory_order_relaxed);
                local[i] = std::move(local.back());
                local.pop_back();
                progressed = true;
            }
            if (generatorDone.load()) {
                bool handoffEmpty;
                {
                    std::lock_guard<std::mutex> lock(handoffMutex);
                    handoffEmpty = handoff.empty();
                }
                if (handoffEmpty && local.empty()) break;
                if (handoffEmpty && at() - lastSentMs.load() > resolveTimeoutMs) {
                    out.unresolved = local.size();
                    break;
                }
            }
            if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });

    // Stops and joins the harvester on every exit path, exceptions included.
    struct StopHarvester {
        std::atomic<bool>& done;
        std::thread& thread;
        ~StopHarvester() {
            done.store(true);
            thread.join();
        }
    };
    std::uint64_t sent = 0;
    {
        StopHarvester stop{generatorDone, harvester};
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const Arrival& a = schedule[i];
            const std::chrono::duration<double, std::milli> due(a.dueMs);
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(due));
            ArrivalResult& r = out.results[i];
            r.dueMs = a.dueMs;
            r.sentMs = at();
            const std::uint64_t span = log ? log->begin("serve.submit", 0, i + 1) : 0;
            try {
                std::future<serve::RequestOutcome> f =
                    endpoint.submit(a.session, a.event);
                r.submittedMs = at();
                std::lock_guard<std::mutex> lock(handoffMutex);
                handoff.push_back({i, std::move(f)});
            } catch (...) {
                r.submittedMs = at();
                r.threw = true;
                r.doneMs = r.submittedMs;
                resolved.fetch_add(1, std::memory_order_relaxed);
            }
            if (log) log->end(span);
            ++sent;
            const std::uint64_t done = resolved.load(std::memory_order_relaxed);
            out.inflightMax = std::max(out.inflightMax, sent - done);
            lastSentMs.store(r.sentMs);
        }
    } // the harvester has resolved or given up on every future
    for (const ArrivalResult& r : out.results)
        out.windowMs = std::max(out.windowMs, r.doneMs);
    return out;
}

} // namespace rinbench
