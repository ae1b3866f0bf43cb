#include "src/serve/load_generator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <thread>
#include <vector>

#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/serve/metrics.hpp"
#include "src/support/json.hpp"
#include "src/support/random.hpp"
#include "src/support/timer.hpp"

namespace rinkit::serve {

double rateAt(const LoadGenOptions& o, double tSec) {
    switch (o.schedule) {
    case LoadSchedule::Constant:
        return o.baseRatePerSec;
    case LoadSchedule::Diurnal: {
        // One full "day" over the run; amplitude clamped so lambda > 0.
        const double a = std::clamp(o.diurnalAmplitude, 0.0, 0.95);
        const double phase = 2.0 * 3.14159265358979323846 * tSec / std::max(o.durationSec, 1e-9);
        return o.baseRatePerSec * (1.0 + a * std::sin(phase));
    }
    case LoadSchedule::FlashCrowd: {
        const double begin = o.flashBeginFrac * o.durationSec;
        const double end = o.flashEndFrac * o.durationSec;
        const bool inFlash = tSec >= begin && tSec < end;
        return o.baseRatePerSec * (inFlash ? o.flashMultiplier : 1.0);
    }
    }
    return o.baseRatePerSec;
}

std::string LoadReport::toJson() const {
    JsonWriter w;
    w.beginObject();
    w.kv("offered", offered);
    w.kv("completed", completed);
    w.kv("rejected", rejected);
    w.kv("degraded", degraded);
    w.kv("deadline_missed", deadlineMissed);
    w.kv("coalesced", coalesced);
    w.kv("shed_rate", shedRate());
    w.kv("duration_s", durationSec);
    w.kv("achieved_per_s", achievedPerSec);
    w.kv("p50_ms", p50Ms);
    w.kv("p95_ms", p95Ms);
    w.kv("p99_ms", p99Ms);
    w.kv("max_ms", maxMs);
    w.kv("scale_ups", scaleUps);
    w.kv("scale_downs", scaleDowns);
    w.kv("replicas_final", replicasFinal);
    w.kv("replicas_max", replicasMax);
    w.kv("overloaded", overloaded);
    w.kv("recovered_at_s", recoveredAtSec);
    w.kv("end_window_p99_ms", endWindowP99Ms);
    w.kv("end_window_shed_rate", endWindowShedRate);
    w.kv("slo_attainment", sloAttainment);
    w.kv("slo_fast_burn_peak", sloFastBurnPeak);
    w.kv("slo_alert_fired", sloAlertFired);
    w.kv("slo_state_changes", sloStateChanges);
    w.kv("traces_retained", tracesRetained);
    w.endObject();
    return w.str();
}

namespace {

/// Next Poisson inter-arrival gap at the schedule's current rate.
double expGap(Rng& rng, double ratePerSec) {
    const double u = rng.real01();
    return -std::log(1.0 - u) / std::max(ratePerSec, 1e-9);
}

/// Folds one evaluate() result into the report's SLO trace: peak fast burn
/// and whether any objective left Healthy.
void observeSloTick(LoadReport& rep, const obs::SloEngine& engine,
                    const std::vector<obs::SloObjectiveStatus>& status) {
    rep.sloFastBurnPeak = std::max(rep.sloFastBurnPeak, engine.fastBurnRate());
    for (const auto& s : status)
        if (s.state != obs::SloState::Healthy) rep.sloAlertFired = true;
}

/// End-of-run attainment: the worst objective over its longest window.
void finishSloReport(LoadReport& rep, const std::vector<obs::SloObjectiveStatus>& status) {
    for (const auto& s : status) rep.sloAttainment = std::min(rep.sloAttainment, s.attainment);
}

SliderEvent sampleEvent(Rng& rng, const LoadGenOptions& o) {
    // Interaction mix of a slider-driven widget: mostly frame scrubbing,
    // occasional cutoff tuning and measure flips, rare refreshes.
    const double r = rng.real01();
    if (r < 0.5)
        return SliderEvent::setFrame(rng.pick(std::max<count>(1, o.frames)), o.deadlineMs);
    if (r < 0.7)
        return SliderEvent::setCutoff(4.0 + 0.1 * static_cast<double>(rng.integer(10)),
                                      o.deadlineMs);
    if (r < 0.9)
        return SliderEvent::setMeasure(
            rng.chance(0.5) ? viz::Measure::Degree : viz::Measure::Closeness, o.deadlineMs);
    return SliderEvent::refresh(o.deadlineMs);
}

/// Per-session state of a MonotoneDrag walk.
struct DragState {
    bool onCutoff = false;     ///< which slider the user is dragging
    int dir = 1;               ///< current drag direction
    std::int64_t frame = 0;    ///< frame slider position
    std::int64_t cutoffTick = 0; ///< cutoff = min + step * tick
};

/// One tick of a direction-persistent slider drag: keep walking the
/// current slider by one step, reflect at the range bounds, occasionally
/// reverse, switch sliders, or flip the measure.
SliderEvent sampleDragEvent(Rng& rng, const LoadGenOptions& o, DragState& st) {
    if (rng.real01() < o.dragMeasureProb)
        return SliderEvent::setMeasure(
            rng.chance(0.5) ? viz::Measure::Degree : viz::Measure::Closeness, o.deadlineMs);
    if (rng.real01() < o.dragSwitchProb) st.onCutoff = !st.onCutoff;
    if (rng.real01() < o.dragReversalProb) st.dir = -st.dir;
    if (st.onCutoff) {
        const auto maxTick = static_cast<std::int64_t>(
            std::max(0.0, (o.dragCutoffMax - o.dragCutoffMin) / o.dragCutoffStep));
        std::int64_t next = st.cutoffTick + st.dir;
        if (next < 0 || next > maxTick) {
            st.dir = -st.dir;
            next = st.cutoffTick + st.dir;
        }
        st.cutoffTick = std::clamp<std::int64_t>(next, 0, maxTick);
        return SliderEvent::setCutoff(
            o.dragCutoffMin + o.dragCutoffStep * static_cast<double>(st.cutoffTick),
            o.deadlineMs);
    }
    const auto maxFrame = static_cast<std::int64_t>(std::max<count>(1, o.frames)) - 1;
    std::int64_t next = st.frame + st.dir;
    if (next < 0 || next > maxFrame) {
        st.dir = -st.dir;
        next = st.frame + st.dir;
    }
    st.frame = std::clamp<std::int64_t>(next, 0, maxFrame);
    return SliderEvent::setFrame(static_cast<index>(st.frame), o.deadlineMs);
}

/// Freshly seeded drag states, one per session: staggered start positions
/// and directions so a fleet of draggers does not move in lockstep.
std::vector<DragState> initialDragStates(Rng& rng, const LoadGenOptions& o) {
    std::vector<DragState> drags(o.sessions);
    const auto maxTick = static_cast<std::int64_t>(
        std::max(0.0, (o.dragCutoffMax - o.dragCutoffMin) / o.dragCutoffStep));
    for (auto& st : drags) {
        st.onCutoff = rng.chance(0.5);
        st.dir = rng.chance(0.5) ? 1 : -1;
        st.frame = static_cast<std::int64_t>(rng.pick(std::max<count>(1, o.frames)));
        st.cutoffTick = static_cast<std::int64_t>(rng.pick(static_cast<count>(maxTick + 1)));
    }
    return drags;
}

} // namespace

LoadReport LoadGenerator::run(ServiceEndpoint& endpoint, const md::Trajectory& traj,
                              const std::function<void(double)>& onTick) {
    const LoadGenOptions& o = options_;
    Rng rng(o.seed);
    LoadReport rep;
    LatencyHistogram hist;

    const count coalescedBefore = endpoint.metrics().counter("coalesced");

    // SLO/tail-sampling hooks: both optional, both deltas so a reused
    // engine/sampler reports only what this run contributed.
    obs::SloEngine* slo = endpoint.sloEngine();
    obs::TailSampler* sampler = endpoint.tailSampler();
    const count sloChangesBefore = slo ? slo->stateChanges() : 0;
    const count retainedBefore = sampler ? sampler->stats().retainedTotal() : 0;

    std::vector<SessionId> sessions;
    sessions.reserve(o.sessions);
    for (count i = 0; i < o.sessions; ++i)
        sessions.push_back(endpoint.openSession(traj, widgetOptions_,
                                                "user-" + std::to_string(i)));
    std::vector<DragState> drags = initialDragStates(rng, o);

    std::vector<std::future<RequestOutcome>> pending;
    const auto harvestOne = [&](RequestOutcome outcome) {
        if (outcome.accepted()) {
            ++rep.completed;
            if (outcome.degraded()) ++rep.degraded;
            if (outcome.deadlineMissed) ++rep.deadlineMissed;
            hist.record(outcome.queueMs + outcome.timing.totalMs());
        } else {
            ++rep.rejected;
        }
    };
    const auto harvestReady = [&] {
        auto writeIt = pending.begin();
        for (auto& f : pending) {
            if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
                harvestOne(f.get());
            else
                *writeIt++ = std::move(f);
        }
        pending.erase(writeIt, pending.end());
    };

    Timer clock;
    const auto nowSec = [&] { return clock.elapsedMs() / 1000.0; };
    // Open-loop pacing: sleep toward the scheduled arrival, but never
    // block on the service — when the generator falls behind wall-clock
    // (harvest hiccup), it catches up by submitting immediately, keeping
    // the offered schedule independent of service health.
    const auto sleepUntil = [&](double targetSec) {
        const double aheadMs = (targetSec - nowSec()) * 1000.0;
        if (aheadMs > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(aheadMs));
    };

    double nextArrival = expGap(rng, rateAt(o, 0.0));
    double nextTick = o.tickIntervalSec;
    while (true) {
        const bool arrivalsLeft = nextArrival < o.durationSec;
        if (!arrivalsLeft && nextTick >= o.durationSec) break;
        if (nextTick < nextArrival || !arrivalsLeft) {
            sleepUntil(nextTick);
            if (onTick) onTick(nextTick);
            if (slo) observeSloTick(rep, *slo, slo->evaluate());
            rep.replicasMax = std::max(rep.replicasMax, endpoint.replicaCount());
            harvestReady();
            nextTick += o.tickIntervalSec;
            continue;
        }
        sleepUntil(nextArrival);
        const count s = static_cast<count>(rng.pick(sessions.size()));
        ++rep.offered;
        const SliderEvent event = o.eventModel == LoadEventModel::MonotoneDrag
                                      ? sampleDragEvent(rng, o, drags[s])
                                      : sampleEvent(rng, o);
        pending.push_back(endpoint.submit(sessions[s], event));
        nextArrival += expGap(rng, rateAt(o, nextArrival));
    }

    endpoint.drain();
    for (auto& f : pending) harvestOne(f.get());
    pending.clear();

    rep.durationSec = o.durationSec;
    rep.achievedPerSec = static_cast<double>(rep.offered) / std::max(o.durationSec, 1e-9);
    rep.coalesced = endpoint.metrics().counter("coalesced") - coalescedBefore;
    rep.p50Ms = hist.percentile(50.0);
    rep.p95Ms = hist.percentile(95.0);
    rep.p99Ms = hist.percentile(99.0);
    rep.maxMs = hist.maxMs();
    rep.replicasFinal = endpoint.replicaCount();
    rep.replicasMax = std::max(rep.replicasMax, rep.replicasFinal);

    if (slo) {
        // One final evaluate after the drain so the report's attainment
        // covers every harvested request.
        const auto status = slo->evaluate();
        observeSloTick(rep, *slo, status);
        finishSloReport(rep, status);
        rep.sloStateChanges = slo->stateChanges() - sloChangesBefore;
    }
    if (sampler) rep.tracesRetained = sampler->stats().retainedTotal() - retainedBefore;

    for (const SessionId id : sessions) endpoint.closeSession(id);
    return rep;
}

// -- virtual-time cluster simulation ------------------------------------------

namespace {

struct SimSlot {
    SliderEvent::Kind kind = SliderEvent::Kind::Refresh;
    double arrivalSec = 0.0; ///< oldest waiter's arrival (Timer semantics)
    count waiters = 1;
};

struct SimSession {
    count replica = 0;
    std::string key;
    std::deque<SimSlot> queue;
    bool busy = false;
    bool waiting = false; ///< parked in its replica's ready FIFO
};

struct SimReplica {
    count busyWorkers = 0;
    std::deque<count> ready; ///< sessions with work awaiting a worker
};

struct Departure {
    double timeSec = 0.0;
    count session = 0;
    count replica = 0; ///< replica whose worker this occupies
    double waitMs = 0.0;
    double serviceMs = 0.0;
    count waiters = 1;
    bool degraded = false;
    bool deadlineMissed = false;

    bool operator>(const Departure& o) const { return timeSec > o.timeSec; }
};

} // namespace

LoadReport LoadGenerator::simulateCluster(const SimServiceModel& model,
                                          const SimOptions& sim) const {
    const LoadGenOptions& o = options_;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rng rng(o.seed);
    LoadReport rep;
    LatencyHistogram hist;

    ConsistentHashRing ring(sim.vnodesPerReplica);
    std::map<count, SimReplica> replicas;
    count nextReplicaId = 0;
    for (count r = 0; r < std::max<count>(1, sim.initialReplicas); ++r) {
        ring.add(nextReplicaId);
        replicas[nextReplicaId];
        ++nextReplicaId;
    }

    std::vector<SimSession> sessions(o.sessions);
    for (count i = 0; i < o.sessions; ++i) {
        sessions[i].key = "user-" + std::to_string(i);
        sessions[i].replica = ring.route(sessions[i].key);
    }
    std::vector<DragState> drags = initialDragStates(rng, o);

    std::priority_queue<Departure, std::vector<Departure>, std::greater<>> departures;

    const auto startNext = [&](count s, double now) {
        SimSession& ses = sessions[s];
        SimSlot slot = ses.queue.front();
        ses.queue.pop_front();
        const count depthBehind = ses.queue.size();
        const double waitMs = (now - slot.arrivalSec) * 1000.0;
        const bool missed = o.deadlineMs > 0.0 && waitMs > o.deadlineMs;
        const bool degraded = depthBehind > model.degradeQueueDepth || missed;
        const double jitter =
            1.0 + model.serviceJitterFrac * (2.0 * rng.real01() - 1.0);
        const double serviceMs =
            model.meanServiceMs * jitter * (degraded ? model.degradedCostFactor : 1.0);
        ses.busy = true;
        ++replicas[ses.replica].busyWorkers;
        departures.push({now + serviceMs / 1000.0, s, ses.replica, waitMs, serviceMs,
                         slot.waiters, degraded, missed});
    };

    const auto tryDispatch = [&](count s, double now) {
        SimSession& ses = sessions[s];
        if (ses.busy || ses.waiting || ses.queue.empty()) return;
        SimReplica& rep_ = replicas[ses.replica];
        if (rep_.busyWorkers >= model.workersPerReplica) {
            rep_.ready.push_back(s);
            ses.waiting = true;
            return;
        }
        startNext(s, now);
    };

    const auto pumpReady = [&](count replicaId, double now) {
        auto it = replicas.find(replicaId);
        if (it == replicas.end()) return;
        SimReplica& rep_ = it->second;
        while (rep_.busyWorkers < model.workersPerReplica && !rep_.ready.empty()) {
            const count s = rep_.ready.front();
            rep_.ready.pop_front();
            SimSession& ses = sessions[s];
            ses.waiting = false;
            // Stale entries (session migrated away or already running) are
            // skipped; the session re-parks itself on its new home.
            if (ses.busy || ses.queue.empty() || ses.replica != replicaId) continue;
            startNext(s, now);
        }
    };

    // Re-route every session onto the current ring; migrated sessions take
    // their queue with them (loss-free, like ReplicaSet migration) and
    // compete for workers on the new home immediately.
    const auto rebalance = [&](double now) {
        for (count s = 0; s < sessions.size(); ++s) {
            SimSession& ses = sessions[s];
            const count owner = ring.route(ses.key);
            if (owner == ses.replica) continue;
            ses.replica = owner;
            ses.waiting = false; // old ready entry is now stale
            if (!ses.busy) tryDispatch(s, now);
        }
    };

    Autoscaler autoscaler(sim.autoscaler);
    // Virtual-time SLO engine: timeScale maps the fast pair's 1 h long
    // window onto half the run, so multi-window multi-burn-rate alerting
    // plays out in simulated seconds. The engine only ever sees sim time,
    // which keeps the whole report deterministic.
    obs::SloConfig sloConfig;
    sloConfig.timeScale = o.durationSec / 7200.0;
    obs::SloEngine slo(sloConfig);
    double simEnd = 0.0;
    LatencyHistogram windowHist;
    count windowOffered = 0;
    count windowShed = 0;
    bool overloadOpen = false;

    double nextArrival = expGap(rng, rateAt(o, 0.0));
    double nextTick = o.tickIntervalSec;
    bool ticking = true;

    while (true) {
        const double tArr = nextArrival < o.durationSec ? nextArrival : kInf;
        const double tDep = departures.empty() ? kInf : departures.top().timeSec;
        const double tTick = ticking ? nextTick : kInf;
        const double now = std::min({tArr, tDep, tTick});
        if (now == kInf) break;
        simEnd = now;

        if (now == tTick) {
            count queued = 0;
            for (const auto& ses : sessions) queued += ses.queue.size();
            AutoscalerSignals signals;
            signals.replicas = replicas.size();
            signals.queueDepthPerReplica =
                static_cast<double>(queued) / static_cast<double>(replicas.size());
            signals.p99LatencyMs = windowHist.samples() ? windowHist.percentile(99.0) : 0.0;
            signals.shedRate = windowOffered == 0 ? 0.0
                                                  : static_cast<double>(windowShed) /
                                                        static_cast<double>(windowOffered);
            observeSloTick(rep, slo, slo.evaluate(now));
            signals.sloFastBurnRate = slo.fastBurnRate();
            if (windowHist.samples() > 0) {
                rep.endWindowP99Ms = signals.p99LatencyMs;
                rep.endWindowShedRate = signals.shedRate;
                if (o.deadlineMs > 0.0 && signals.p99LatencyMs > o.deadlineMs) {
                    rep.overloaded = true;
                    overloadOpen = true;
                } else if (overloadOpen) {
                    rep.recoveredAtSec = now;
                    overloadOpen = false;
                }
            }

            if (sim.autoscale) {
                const auto decision = autoscaler.evaluate(signals);
                if (decision == Autoscaler::Decision::Up &&
                    replicas.size() < sim.autoscaler.maxReplicas) {
                    ring.add(nextReplicaId);
                    replicas[nextReplicaId];
                    ++nextReplicaId;
                    ++rep.scaleUps;
                    rebalance(now);
                } else if (decision == Autoscaler::Decision::Down &&
                           replicas.size() > sim.autoscaler.minReplicas) {
                    const count victim = replicas.rbegin()->first;
                    ring.remove(victim);
                    replicas.erase(victim);
                    ++rep.scaleDowns;
                    rebalance(now);
                }
            }
            rep.replicasMax = std::max(rep.replicasMax, static_cast<count>(replicas.size()));
            windowHist = LatencyHistogram{};
            windowOffered = 0;
            windowShed = 0;
            nextTick += o.tickIntervalSec;
            // Ticks stop once arrivals ended and the system fully drained.
            if (tArr == kInf && departures.empty()) ticking = false;
            continue;
        }

        if (now == tDep) {
            const Departure dep = departures.top();
            departures.pop();
            SimSession& ses = sessions[dep.session];
            rep.completed += dep.waiters;
            if (dep.degraded) {
                rep.degraded += dep.waiters;
                windowShed += dep.waiters;
            }
            if (dep.deadlineMissed) rep.deadlineMissed += dep.waiters;
            const double latencyMs = dep.waitMs + dep.serviceMs;
            // Degraded answers map to the Approx tier's nominal eps, which
            // sits inside the default 0.1 staleness budget (good) — the
            // latency objective is what the flash crowd burns.
            const obs::FinishedRequest finished{.latencyMs = latencyMs,
                                                .deadlineMs = o.deadlineMs,
                                                .degraded = dep.degraded,
                                                .eps = dep.degraded ? 0.05 : 0.0};
            for (count wtr = 0; wtr < dep.waiters; ++wtr) {
                hist.record(latencyMs);
                windowHist.record(latencyMs);
                slo.record(now, finished);
            }
            ses.busy = false;
            auto it = replicas.find(dep.replica);
            if (it != replicas.end()) {
                --it->second.busyWorkers;
                if (!ses.queue.empty() && ses.replica == dep.replica && !ses.waiting) {
                    // Back of the line, like the real service's re-pump.
                    it->second.ready.push_back(dep.session);
                    ses.waiting = true;
                }
                pumpReady(dep.replica, now);
            }
            if (ses.replica != dep.replica) tryDispatch(dep.session, now);
            continue;
        }

        // Arrival.
        const count s = static_cast<count>(rng.pick(sessions.size()));
        SimSession& ses = sessions[s];
        const SliderEvent event = o.eventModel == LoadEventModel::MonotoneDrag
                                      ? sampleDragEvent(rng, o, drags[s])
                                      : sampleEvent(rng, o);
        ++rep.offered;
        ++windowOffered;
        bool merged = false;
        for (auto& slot : ses.queue) {
            if (slot.kind == event.kind) {
                // Latest-wins: the new event overwrites the queued slot and
                // shares its (older) timer, exactly like the real service.
                ++slot.waiters;
                ++rep.coalesced;
                merged = true;
                break;
            }
        }
        if (!merged) {
            if (ses.queue.size() >= model.maxQueuedPerSession) {
                ++rep.rejected;
                ++windowShed;
                slo.record(now, obs::FinishedRequest{.rejected = true});
            } else {
                ses.queue.push_back({event.kind, now, 1});
                tryDispatch(s, now);
            }
        }
        nextArrival += expGap(rng, rateAt(o, nextArrival));
    }

    rep.durationSec = o.durationSec;
    rep.achievedPerSec = static_cast<double>(rep.offered) / std::max(o.durationSec, 1e-9);
    rep.p50Ms = hist.percentile(50.0);
    rep.p95Ms = hist.percentile(95.0);
    rep.p99Ms = hist.percentile(99.0);
    rep.maxMs = hist.maxMs();
    rep.replicasFinal = replicas.size();
    rep.replicasMax = std::max(rep.replicasMax, rep.replicasFinal);
    {
        const auto status = slo.evaluate(simEnd);
        observeSloTick(rep, slo, status);
        finishSloReport(rep, status);
        rep.sloStateChanges = slo.stateChanges();
    }
    return rep;
}

} // namespace rinkit::serve
