// drag: one user in the paper's per-user-kernel setup. A closed loop with
// no think time drives a RinWidget directly with seeded monotone slider
// drags (frame and cutoff), occasional reversals and closeness/betweenness
// flips. The trace run replays the same events through the layer entry
// points under the benchmark's own spans.

#include <memory>

#include "checks.hpp"
#include "src/md/synthetic.hpp"
#include "workloads.hpp"

namespace rinbench {

using namespace rinkit;

namespace {

constexpr count kResidues = 1000;
constexpr count kFrames = 64;
constexpr int kCutoffTicks = 35; // 4.0 .. 7.5 A in 0.1 A steps
constexpr std::size_t kCheckEvery = 10;

double cutoffOf(int tick) { return static_cast<double>(40 + tick) / 10.0; }

viz::RinWidgetOptions dragOptions() {
    viz::RinWidgetOptions o;
    o.wireFormat = viz::WireFormat::Binary;
    return o;
}

// The drag walk of serve::LoadGenerator's MonotoneDrag model with its
// default per-event probabilities (LoadGenOptions): a slider switch and a
// direction reversal, each drawn independently per tick. Its measure flip
// rate, 0.04 per event, is kept but made regular: every 25th event flips
// the measure, so every run reads betweenness for half of its events. A
// memoryless flip lets one seed dwell on betweenness and another on
// closeness, which moves the median latency by a quarter between seeds.
constexpr std::size_t kMeasureFlipEvery = 25;
constexpr double kSwitchProb = 0.05;
constexpr double kReversalProb = 0.08;
// The cost of an event grows with the cutoff, and the walk parks the
// cutoff wherever the user left it while they drag frames, so the mean
// cutoff of a run varies by half an angstrom between seeds. Every other
// block of 25 events therefore mirrors the cutoff walk about the middle
// of the range (t -> 7.5 + 4.0 - t A): the widget gets one cutoff jump at
// each block's start, and every run covers the range evenly.
constexpr std::size_t kMirrorBlock = 25;

/// Seeded monotone drags: each event moves the current slider one step
/// (frame +-1, or cutoff +-0.1 A within 4.0-7.5 A), bouncing at its ends,
/// flips the measure between closeness and betweenness, or, at the start
/// of a mirror block, jumps the cutoff to its mirror image. Starts where
/// the widget does: frame 0, 4.5 A, closeness.
std::vector<SliderStep> dragStream(std::uint64_t seed, std::size_t n) {
    SeededStream rng(seed);
    std::vector<SliderStep> out;
    out.reserve(n);
    int frame = 0;
    int tick = 5;    // the walk's cutoff
    int applied = 5; // the widget's cutoff: the walk's, or its mirror image
    viz::Measure measure = viz::Measure::Closeness;
    bool onFrame = rng.uniform() < 0.5;
    int dir = rng.uniform() < 0.5 ? 1 : -1;
    const std::size_t phase = rng.below(kMeasureFlipEvery);
    const auto mirrored = [&] { return (out.size() / kMirrorBlock) % 2 == 1; };
    while (out.size() < n) {
        SliderStep s;
        s.frame = static_cast<index>(frame);
        s.cutoff = cutoffOf(applied);
        s.measure = measure;
        const int want = mirrored() ? kCutoffTicks - tick : tick;
        if (want != applied) {
            applied = want;
            s.kind = SliderStep::Kind::Cutoff;
            s.cutoff = cutoffOf(applied);
            out.push_back(s);
            continue;
        }
        if (out.size() % kMeasureFlipEvery == phase) {
            measure = measure == viz::Measure::Closeness ? viz::Measure::Betweenness
                                                         : viz::Measure::Closeness;
            s.kind = SliderStep::Kind::Measure;
            s.measure = measure;
            out.push_back(s);
            continue;
        }
        if (rng.uniform() < kSwitchProb) onFrame = !onFrame;
        if (rng.uniform() < kReversalProb) dir = -dir;
        int& pos = onFrame ? frame : tick;
        const int hi = onFrame ? static_cast<int>(kFrames) - 1 : kCutoffTicks;
        if (pos + dir < 0 || pos + dir > hi) dir = -dir;
        pos += dir;
        applied = mirrored() ? kCutoffTicks - tick : tick;
        s.kind = onFrame ? SliderStep::Kind::Frame : SliderStep::Kind::Cutoff;
        s.frame = static_cast<index>(frame);
        s.cutoff = cutoffOf(applied);
        out.push_back(s);
    }
    return out;
}

const char* kindName(SliderStep::Kind k) {
    switch (k) {
    case SliderStep::Kind::Frame: return "frame";
    case SliderStep::Kind::Cutoff: return "cutoff";
    case SliderStep::Kind::Measure: return "measure";
    }
    return "?";
}

ScoreProvenance provenanceOf(const viz::RinWidget::UpdateTiming& t) {
    return {t.measureTier, t.measureEps};
}

} // namespace

RunResult runDrag(const RunConfig& cfg) {
    RunResult r;
    MetricSheet& m = r.metrics;

    // Set-up: trajectory generation and the widget's cold draw (multilevel
    // layout, first measure, first keyframe), repeated; the last one runs.
    std::vector<double> setups;
    std::unique_ptr<md::Trajectory> traj;
    std::unique_ptr<viz::RinWidget> widget;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        widget.reset();
        traj.reset();
        const auto t0 = Clock::now();
        md::TrajectoryGenerator::Parameters p;
        p.frames = kFrames;
        p.seed = subSeed(cfg.seed, 1);
        traj = std::make_unique<md::Trajectory>(
            md::TrajectoryGenerator(p).generate(md::helixBundle(kResidues)));
        widget = std::make_unique<viz::RinWidget>(*traj, dragOptions());
        setups.push_back(msSince(t0) / 1000.0);
    }
    fillSetup(m, setups, r);

    const std::vector<SliderStep> stream = dragStream(subSeed(cfg.seed, 2), 100000);
    // A trace run splits its time between the widget pass and the two
    // replays (untraced and traced).
    const double budgetMs = cfg.seconds * 1000.0 * (cfg.trace ? 1.0 / 3.0 : 1.0);

    std::vector<double> latencies, wireBytes;
    std::vector<ReplayRecord> widgetRecords;
    std::size_t misses = 0;
    double cpuMs = 0.0, eventMs = 0.0;
    // What the traffic was: event kinds, the measure each event read, and
    // which tier answered the betweenness reads.
    ShareCounter kinds, measures, betweennessTiers;
    ScoreProvenance last;
    const auto start = Clock::now();
    std::size_t i = 0;
    for (; i < stream.size(); ++i) {
        if (msSince(start) >= budgetMs && latencies.size() >= kMinEvents) break;
        const double cpu0 = processCpuMs();
        const auto t0 = Clock::now();
        viz::RinWidget::UpdateTiming t;
        bool ok = true;
        try {
            t = applyStep(*widget, stream[i]);
        } catch (const std::exception& e) {
            ok = false;
            r.tally.fail(std::string("event threw: ") + e.what());
        }
        const double ms = msSince(t0);
        cpuMs += processCpuMs() - cpu0;
        eventMs += ms;
        ++r.tally.attempted;
        latencies.push_back(ms);
        wireBytes.push_back(static_cast<double>(t.wireBytes));
        if (!ok || ms > kDeadlineMs) ++misses;
        last = provenanceOf(t);
        kinds.add(kindName(stream[i].kind));
        measures.add(viz::measureName(stream[i].measure));
        if (stream[i].measure == viz::Measure::Betweenness)
            betweennessTiers.add(t.measureCacheHit ? "cache hit"
                                                   : viz::tierName(t.measureTier));
        if (cfg.trace)
            widgetRecords.push_back(recordOf(widget->wireFrame(),
                                             widget->wireRefineFrame(),
                                             widget->wireClient(), widget->scores()));
        if ((i + 1) % kCheckEvery == 0)
            checkWidget(*widget, *traj, last, r.tally, "drag event " + std::to_string(i));
    }
    const std::size_t events = i;
    checkWidget(*widget, *traj, last, r.tally, "drag final state");
    r.notes.push_back("event mix: " + kinds.str() + "; measure read: " + measures.str() +
                      "; betweenness reads by tier: " + betweennessTiers.str());

    fillLatency(m, latencies, r);
    m.set("ops_per_s", static_cast<double>(events) / (eventMs / 1000.0), "1/s");
    m.set("cpu_ms_per_op", cpuMs / static_cast<double>(events), "ms");
    m.set("miss_frac", static_cast<double>(misses) / static_cast<double>(events),
          "fraction");
    m.set("wire_kb_per_event", mean(wireBytes) / 1024.0, "KiB");
    m.set("proc.cpu_busy_frac", cpuMs / (eventMs * visibleCpus()), "fraction");

    if (cfg.trace) {
        // Replay the same events through the layer entry points: once
        // untraced, the base of trace.overhead_frac, then under spans.
        double bareMs = 0.0;
        {
            ShadowWidget bare(*traj, dragOptions(), nullptr);
            for (std::size_t k = 0; k < events; ++k)
                bareMs += bare.apply(stream[k], k + 1).totalMs;
        }
        SpanLog log;
        LayerCost cold;
        ShadowWidget shadow(*traj, dragOptions(), &log, &cold);
        std::vector<LayerCost> costs;
        std::vector<ReplayRecord> replayRecords;
        std::size_t bytesEqual = 0;
        for (std::size_t k = 0; k < events; ++k) {
            costs.push_back(shadow.apply(stream[k], k + 1));
            replayRecords.push_back(
                recordOf(shadow.wireFrame(), {}, shadow.wireClient(), shadow.scores()));
            bytesEqual += replayRecords.back().frameHash == widgetRecords[k].frameHash;
        }
        std::string why;
        const Equality eq = compareReplay(widgetRecords, replayRecords, &why);
        r.notes.push_back(std::string("replay equality over ") + std::to_string(events) +
                          " events: " + equalityName(eq) +
                          (why.empty() ? "" : " (" + why + ")"));
        r.tally.check(eq != Equality::Mismatch, "replay: " + why);

        fillCycleLayers(m, costs);
        m.set("layout.cold_ms", cold.layoutMs, "ms");
        double replayMs = 0.0, layerMs = 0.0;
        for (const LayerCost& c : costs) {
            replayMs += c.totalMs;
            layerMs += c.layersMs();
        }
        m.set("trace.overhead_frac", replayMs / bareMs - 1.0, "fraction");
        m.set("trace.unattributed_frac", 1.0 - layerMs / eventMs, "fraction");
        m.set("trace.replay_bytes_equal_frac",
              static_cast<double>(bytesEqual) / static_cast<double>(events), "fraction");
        r.notes.push_back("trace bases: overhead = traced replay " + number(replayMs) +
                          " ms / untraced replay " + number(bareMs) +
                          " ms - 1; unattributed = 1 - replayed layers " +
                          number(layerMs) + " ms / untraced widget " + number(eventMs) +
                          " ms (a separate pass: it can go negative); " +
                          std::to_string(events) + " events");
        measureScaling(m, traj->proteinAtFrame(0), &log);
        writeSpans(cfg, log, r);
    }
    m.set("peak_rss_mb", peakRssMb(), "MB");
    return r;
}

} // namespace rinbench
