// fleet: an open loop of Poisson arrivals at half the measured
// saturation rate onto 4 sessions of one SessionService with default
// options (10-vCore budget, 10 workers). Events are frame jumps, cutoff
// jumps and measure switches in a fixed cycle per session, with a 100 ms
// deadline.

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "open_loop.hpp"
#include "src/layout/multilevel_maxent_stress.hpp"
#include "src/md/synthetic.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/serve/session_service.hpp"
#include "workloads.hpp"

namespace rinbench {

using namespace rinkit;

namespace {

constexpr count kResidues = 1000;
constexpr count kFrames = 64;
constexpr count kSessions = 4;
// Half the measured saturation. At 70% the queue multiplies every wobble
// of the service time (pool x OpenMP oversubscription on a shared host) so
// much that latency medians of identical runs spread by more than 30%.
constexpr double kLoad = 0.5;
// The saturation probe: a warm-up, then windows whose median rate is the
// saturation, so one slow stretch of the host does not set the load. It
// runs before the open loop, where it sets the rate, and again after it;
// ops_per_s is the median of both probes' windows, so that it spans the
// run rather than the host's speed in its first seconds. Capacity climbs
// over the first seconds of load; the first probe's warm-up covers that.
constexpr double kSaturationWarmupMs = 2000.0;
constexpr double kSaturationRewarmMs = 500.0;
constexpr int kSaturationWindows = 4;
constexpr double kSaturationWindowMs = 2000.0;
constexpr double kResolveTimeoutMs = 30000.0;

viz::RinWidgetOptions fleetOptions() {
    viz::RinWidgetOptions o;
    o.wireFormat = viz::WireFormat::Binary;
    o.lodScenes = true;
    return o;
}

// The event mix is serve::LoadGenerator's Mixed model (LoadEventModel::
// Mixed) without its refreshes: frame jumps, cutoff jumps to 4.0-4.9 A in
// 0.1 A steps, and measure switches between degree and closeness, 50 : 20 :
// 20. Mixed draws each event's kind and switch target independently; here
// each session runs the mix's expected composition as a fixed cycle, and
// only frames, cutoffs, arrival times and sessions are drawn. The median
// latency sits between the cheap degree events and the closeness events,
// so it follows the share of events that read closeness: with independent
// draws that share differed by up to 8 points between seeds, and the median
// by a fifth.
const viz::Measure kMeasures[] = {viz::Measure::Degree, viz::Measure::Closeness};

serve::SliderEvent frameJump(SeededStream& rng) {
    return serve::SliderEvent::setFrame(static_cast<index>(rng.below(kFrames)),
                                        kDeadlineMs);
}

serve::SliderEvent cutoffJump(SeededStream& rng) {
    return serve::SliderEvent::setCutoff(static_cast<double>(40 + rng.below(10)) / 10.0,
                                         kDeadlineMs);
}

struct Fleet {
    std::unique_ptr<md::Trajectory> traj;
    std::unique_ptr<serve::SessionService> service;
    std::vector<serve::SessionId> sessions;
};

/// Event @p k of session @p session: cycles of 9 with the mix's expected
/// composition (5 frame jumps, 2 cutoff jumps, a switch to each measure).
/// A session reads one measure for 4 events of a cycle and the other for 5;
/// odd sessions swap the two, so the fleet reads each for half its events.
/// Frames and cutoffs are seeded.
serve::SliderEvent cycleEvent(SeededStream& rng, std::size_t session, std::size_t k) {
    switch ((k + session) % 9) {
    case 2: return cutoffJump(rng);
    case 4: return serve::SliderEvent::setMeasure(kMeasures[session % 2], kDeadlineMs);
    case 6: return cutoffJump(rng);
    case 8: return serve::SliderEvent::setMeasure(kMeasures[1 - session % 2], kDeadlineMs);
    default: return frameJump(rng);
    }
}

/// Completions per second in one window: the gaps between its first and
/// last completion, so the rate is not rounded to whole events.
double windowRate(const std::vector<double>& doneAtMs) {
    if (doneAtMs.size() < 2) return static_cast<double>(doneAtMs.size()) /
                                    (kSaturationWindowMs / 1000.0);
    return static_cast<double>(doneAtMs.size() - 1) /
           ((doneAtMs.back() - doneAtMs.front()) / 1000.0);
}

/// Saturation probe: a closed loop keeping one event outstanding per
/// session; after @p warmupMs, each window's completions per second.
std::vector<double> probeSaturation(Fleet& f, std::uint64_t seed, double warmupMs) {
    SeededStream rng(seed);
    std::vector<std::size_t> sent(f.sessions.size());
    const auto next = [&](std::size_t s) {
        return f.service->submit(f.sessions[s], cycleEvent(rng, s, sent[s]++));
    };
    std::vector<std::future<serve::RequestOutcome>> pending(f.sessions.size());
    for (std::size_t s = 0; s < f.sessions.size(); ++s) pending[s] = next(s);
    std::vector<std::vector<double>> doneAt(kSaturationWindows);
    const auto start = Clock::now();
    const double endMs = warmupMs + kSaturationWindows * kSaturationWindowMs;
    while (msSince(start) < endMs) {
        bool progressed = false;
        for (std::size_t s = 0; s < pending.size(); ++s) {
            if (pending[s].wait_for(std::chrono::seconds(0)) != std::future_status::ready)
                continue;
            pending[s].get();
            const double at = msSince(start) - warmupMs;
            if (at >= 0.0 && at < kSaturationWindows * kSaturationWindowMs)
                doneAt[static_cast<std::size_t>(at / kSaturationWindowMs)].push_back(at);
            progressed = true;
            pending[s] = next(s);
        }
        if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    f.service->drain();
    for (auto& p : pending) p.get();
    std::vector<double> windowRates;
    for (const std::vector<double>& w : doneAt) windowRates.push_back(windowRate(w));
    return windowRates;
}

LayerCost costOf(const serve::SliderEvent& e, const viz::RinWidget::UpdateTiming& t) {
    LayerCost c;
    c.graphMoved = e.kind == serve::SliderEvent::Kind::Frame ||
                   e.kind == serve::SliderEvent::Kind::Cutoff;
    c.rinMs = t.networkUpdateMs;
    c.edgesChanged = t.edgeStats.edgesAdded + t.edgeStats.edgesRemoved;
    c.layoutWarm = c.graphMoved;
    c.layoutMs = t.layoutMs;
    c.measureRan = true;
    c.measureMs = t.measureMs;
    c.measureInfo.tier = t.measureTier;
    c.measureInfo.cacheHit = t.measureCacheHit;
    c.sceneMs = t.sceneBuildMs;
    c.encodeMs = t.serializeMs;
    c.clientMs = t.clientMs + t.clientRefineMs;
    c.wireBytes = t.wireBytes;
    c.keyframe = t.wireKeyframe;
    c.lod = t.lodCoarse;
    c.patchElements = t.wirePatchElements;
    c.totalMs = t.totalMs();
    return c;
}

} // namespace

RunResult runFleet(const RunConfig& cfg) {
    RunResult r;
    MetricSheet& m = r.metrics;

    // Set-up: trajectory, service, and 4 sessions each making its cold draw.
    std::vector<double> setups;
    Fleet f;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        f.service.reset(); // joins the workers before the trajectory goes
        f.sessions.clear();
        f.traj.reset();
        const auto t0 = Clock::now();
        md::TrajectoryGenerator::Parameters p;
        p.frames = kFrames;
        p.seed = subSeed(cfg.seed, 1);
        f.traj = std::make_unique<md::Trajectory>(
            md::TrajectoryGenerator(p).generate(md::helixBundle(kResidues)));
        f.service = std::make_unique<serve::SessionService>();
        for (count s = 0; s < kSessions; ++s)
            f.sessions.push_back(f.service->openSession(*f.traj, fleetOptions()));
        setups.push_back(msSince(t0) / 1000.0);
    }
    fillSetup(m, setups, r);

    std::vector<double> windowRates =
        probeSaturation(f, subSeed(cfg.seed, 3), kSaturationWarmupMs);
    const double rate = kLoad * median(windowRates);
    const auto listed = [](const std::vector<double>& values) {
        std::string out;
        for (double v : values) out += (out.empty() ? "" : ", ") + number(v);
        return out;
    };
    r.notes.push_back("saturation before the run " + number(median(windowRates)) +
                      " events/s (median of closed-loop windows " + listed(windowRates) +
                      "; " + std::to_string(kSessions) + " sessions, " +
                      std::to_string(f.service->workerCount()) +
                      " workers); offered rate " + number(rate) + " events/s");

    // Poisson arrivals over the run, generated before timing starts.
    SeededStream rng(subSeed(cfg.seed, 4));
    std::vector<Arrival> schedule;
    std::size_t sent[kSessions] = {};
    // Each session's measure in the schedule, exact from its first switch.
    bool onCloseness[kSessions] = {};
    std::vector<viz::Measure> reads; // the measure each arrival reads
    const double windowMs = cfg.seconds * 1000.0;
    const double meanGapMs = 1000.0 / rate;
    for (double t = rng.exponential(meanGapMs);
         t < windowMs || schedule.size() < kMinEvents; t += rng.exponential(meanGapMs)) {
        Arrival a;
        a.dueMs = t;
        const std::size_t s = rng.below(kSessions);
        a.session = f.sessions[s];
        a.event = cycleEvent(rng, s, sent[s]++);
        if (a.event.kind == serve::SliderEvent::Kind::Measure)
            onCloseness[s] = a.event.measure == viz::Measure::Closeness;
        reads.push_back(kMeasures[onCloseness[s] ? 1 : 0]);
        schedule.push_back(a);
    }

    SpanLog log;
    const serve::MetricsSnapshot before = f.service->metrics();
    const double cpu0 = processCpuMs();
    const OpenLoopResult run =
        runOpenLoop(*f.service, schedule, kResolveTimeoutMs, cfg.trace ? &log : nullptr);
    const double cpuMs = processCpuMs() - cpu0;
    f.service->drain();
    const serve::MetricsSnapshot after = f.service->metrics();

    // Outcomes: latency from the due time; misses are anything not Ok
    // within the deadline.
    std::vector<double> latencies, late, submitUs, wireBytes;
    std::size_t misses = 0, degraded = 0, rejected = 0;
    // Coalesced waiters share one execution (same session and queue time).
    std::map<std::pair<serve::SessionId, double>, LayerCost> executed;
    std::vector<double> queueMs, execMs;
    double sentToDoneMs = 0.0, programMs = 0.0;
    // What the traffic was: event kinds, the measure each event read, and
    // which tier answered each executed request's measure read.
    ShareCounter kinds, measures, tiers;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const ArrivalResult& a = run.results[i];
        ++r.tally.attempted;
        const serve::SliderEvent& e = schedule[i].event;
        kinds.add(std::string(serve::kindName(e.kind)));
        measures.add(viz::measureName(reads[i]));
        late.push_back(a.lateMs());
        submitUs.push_back((a.submittedMs - a.sentMs) * 1000.0);
        if (a.resolutions != 1 || a.threw) { // every future resolves exactly once
            r.tally.check(false, "event " + std::to_string(i) + " resolved " +
                                     std::to_string(a.resolutions) + " times" +
                                     (a.threw ? " (threw)" : ""));
            ++misses;
            continue;
        }
        const serve::RequestOutcome& o = a.outcome;
        latencies.push_back(a.latencyMs());
        if (!o.accepted()) {
            ++rejected;
            ++misses;
            r.tally.fail("event " + std::to_string(i) + " rejected");
            continue;
        }
        degraded += o.degraded();
        if (o.status != serve::RequestStatus::Ok || a.latencyMs() > kDeadlineMs) ++misses;
        wireBytes.push_back(static_cast<double>(o.timing.wireBytes));
        const auto key = std::make_pair(schedule[i].session, o.queueMs);
        if (executed.emplace(key, costOf(schedule[i].event, o.timing)).second) {
            tiers.add(o.timing.measureCacheHit ? "cache hit"
                                               : viz::tierName(o.timing.measureTier));
            queueMs.push_back(o.queueMs);
            execMs.push_back(o.timing.totalMs());
            sentToDoneMs += a.doneMs - a.sentMs;
            programMs += o.queueMs + o.timing.totalMs();
        }
    }
    r.notes.push_back("event mix: " + kinds.str() + "; measure read: " + measures.str() +
                      "; measure reads by tier (executed requests): " + tiers.str());
    if (run.unresolved > 0)
        r.notes.push_back(std::to_string(run.unresolved) + " futures unresolved after " +
                          number(kResolveTimeoutMs) + " ms");

    // Final state of every session after the drain.
    for (serve::SessionId id : f.sessions) {
        const viz::RinWidget* w = f.service->sessionWidget(id);
        if (!w) {
            r.tally.check(false, "session " + std::to_string(id) + " vanished");
            continue;
        }
        // The last accepted event of each kind decides the session's
        // position. Coalescing keeps a slot's place in the queue, so the
        // last event sent need not be the last one run: the applied-event
        // log names the kind that ran last, and the last event of that kind
        // holds the outcome saying which tier produced the scores.
        const std::vector<serve::SliderEvent::Kind> applied =
            f.service->appliedEvents(id);
        std::optional<ScoreProvenance> from;
        std::optional<index> frame;
        std::optional<double> cutoff;
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            if (schedule[i].session != id || !run.results[i].outcome.accepted() ||
                run.results[i].resolutions != 1)
                continue;
            const serve::SliderEvent& e = schedule[i].event;
            if (e.kind == serve::SliderEvent::Kind::Frame) frame = e.frame;
            if (e.kind == serve::SliderEvent::Kind::Cutoff) cutoff = e.cutoff;
            if (!applied.empty() && e.kind == applied.back())
                from = ScoreProvenance{run.results[i].outcome.timing.measureTier,
                                       run.results[i].outcome.timing.measureEps};
        }
        const std::string where = "fleet session " + std::to_string(id);
        if (frame)
            r.tally.check(w->frame() == *frame,
                          where + ": frame is not the last one sent");
        if (cutoff)
            r.tally.check(w->cutoff() == *cutoff,
                          where + ": cutoff is not the last one sent");
        if (!from) {
            r.tally.check(false, where + ": no outcome for the last applied event");
            continue;
        }
        SoftFindings soft;
        checkWidget(*w, *f.traj, *from, r.tally, where, &soft);
        if (soft.staleSkipped)
            r.notes.push_back(where + ": scores served stale, tier check skipped");
        if (soft.approxOutsideEps)
            r.notes.push_back(where + ": Approx-tier scores outside epsilon (" +
                              soft.firstApproxMiss +
                              "); allowed with probability delta, not a failure");
    }

    const double lateP99 = percentile(late, 99);
    r.notes.push_back("generator lateness p99 " + number(lateP99) + " ms (bound " +
                      number(kMaxGeneratorLateP99Ms) + " ms)");
    r.tally.check(lateP99 <= kMaxGeneratorLateP99Ms,
                  "generator fell behind its schedule: run invalid");

    // The second probe, once the sessions' final state has been checked.
    const std::vector<double> afterRates =
        probeSaturation(f, subSeed(cfg.seed, 5), kSaturationRewarmMs);
    r.notes.push_back("saturation after the run " + number(median(afterRates)) +
                      " events/s (windows " + listed(afterRates) + ")");
    windowRates.insert(windowRates.end(), afterRates.begin(), afterRates.end());

    const double events = static_cast<double>(schedule.size());
    fillLatency(m, latencies, r);
    // Capacity: what the fleet completes per second when saturated.
    m.set("ops_per_s", median(windowRates), "1/s");
    m.set("cpu_ms_per_op", cpuMs / events, "ms");
    m.set("miss_frac", static_cast<double>(misses) / events, "fraction");
    m.set("degraded_frac", static_cast<double>(degraded) / events, "fraction");
    m.set("wire_kb_per_event", mean(wireBytes) / 1024.0, "KiB");
    m.set("gen.late_ms.p99", lateP99, "ms");
    m.set("proc.cpu_busy_frac", cpuMs / (run.windowMs * visibleCpus()), "fraction");

    if (cfg.trace) {
        std::vector<LayerCost> costs;
        for (const auto& [key, c] : executed) costs.push_back(c);
        fillCycleLayers(m, costs);
        m.set("serve.submit_us.p50", percentile(submitUs, 50), "us");
        m.set("serve.queue_ms.p50", percentile(queueMs, 50), "ms");
        m.set("serve.queue_ms.p99", percentile(queueMs, 99), "ms");
        m.set("serve.exec_ms.p50", percentile(execMs, 50), "ms");
        m.set("serve.exec_ms.p99", percentile(execMs, 99), "ms");
        const auto delta = [&](const char* counter) {
            return static_cast<double>(after.counter(counter) - before.counter(counter));
        };
        m.set("serve.coalesced_frac", delta("coalesced") / delta("submitted"),
              "fraction");
        m.set("serve.rejected_frac", static_cast<double>(rejected) / events, "fraction");
        m.set("serve.inflight.max", static_cast<double>(run.inflightMax), "count");
        m.set("trace.unattributed_frac", 1.0 - programMs / sentToDoneMs, "fraction");
        r.notes.push_back("serve.queue_ms and serve.exec_ms are program-reported "
                          "(RequestOutcome::queueMs, UpdateTiming::totalMs) over " +
                          std::to_string(execMs.size()) + " executed requests");

        // Cold layout of the first frame, as a session's first draw runs it.
        const Graph g0 = rin::RinBuilder(rin::DistanceCriterion::MinimumAtomDistance)
                             .build(f.traj->proteinAtFrame(0), 4.5);
        MultilevelMaxentStress cold(g0, 3);
        MaxentWorkspace ws;
        cold.setWorkspace(&ws);
        m.set("layout.cold_ms", timedCall(&log, "layout.cold", 0, 0, [&] { cold.run(); }),
              "ms");
        measureScaling(m, f.traj->proteinAtFrame(0), &log);
        writeSpans(cfg, log, r);
    }
    f.service.reset(); // joins the workers before the trajectory goes
    m.set("peak_rss_mb", peakRssMb(), "MB");
    return r;
}

} // namespace rinbench
