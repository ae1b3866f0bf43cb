// Tests of the benchmark's own code: the percentile rule, the open-loop
// due-time and lateness accounting against fake endpoints that stall or
// never answer, the replay-equality check, and the score tiers' bounds.
//
//   python3 rinbench/run.py --selftest

#include <cmath>
#include <future>
#include <iostream>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "open_loop.hpp"
#include "replay.hpp"
#include "src/graph/csr_view.hpp"
#include "src/md/synthetic.hpp"
#include "src/viz/measures.hpp"

namespace {

using namespace rinbench;
using namespace rinkit;

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
}

// -- percentile rule -------------------------------------------------------

void testPercentiles() {
    expect(tailPercentileFor(19) == 0.0, "fewer than 20 samples support no percentile");
    expect(tailPercentileFor(20) == 50.0, "20 samples support p50");
    expect(tailPercentileFor(99) == 50.0, "99 samples do not support p90");
    expect(tailPercentileFor(100) == 90.0, "100 samples support p90");
    expect(tailPercentileFor(999) == 90.0, "999 samples do not support p99");
    expect(tailPercentileFor(1000) == 99.0, "1000 samples support p99");
    expect(tailPercentileFor(10000) == 99.9, "10000 samples support p99.9");
    expect(percentile({5, 1, 4, 2, 3}, 50) == 3.0, "median of 1..5 is 3");
    expect(percentile({1, 2}, 50) == 1.5, "percentiles interpolate linearly");
    expect(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90) == 10.0,
           "p90 of 1..11 is 10");
    expect(percentile({}, 90) == 0.0, "empty sample set reads 0");
}

// -- open loop ---------------------------------------------------------------

/// Answers every submit at once, except that submit number @p stallAt
/// blocks for @p stallMs first; with @p answer false no future ever
/// resolves.
class FakeEndpoint : public serve::ServiceEndpoint {
public:
    FakeEndpoint(std::size_t stallAt, double stallMs, bool answer = true)
        : stallAt_(stallAt), stallMs_(stallMs), answer_(answer) {}

    serve::SessionId openSession(const md::Trajectory&, viz::RinWidget::Options,
                                 std::string_view) override {
        return 1;
    }
    void closeSession(serve::SessionId) override {}
    std::future<serve::RequestOutcome> submit(serve::SessionId,
                                              serve::SliderEvent) override {
        if (calls_++ == stallAt_)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(stallMs_));
        std::lock_guard<std::mutex> lock(mutex_);
        held_.emplace_back();
        std::future<serve::RequestOutcome> f = held_.back().get_future();
        if (answer_) held_.back().set_value(serve::RequestOutcome{});
        return f;
    }
    void drain() override {}
    void shutdown() override {}
    count activeSessions() const override { return 1; }
    serve::MetricsSnapshot metrics() const override { return {}; }

private:
    std::size_t stallAt_;
    double stallMs_;
    bool answer_;
    std::size_t calls_ = 0;
    std::mutex mutex_;
    std::vector<std::promise<serve::RequestOutcome>> held_; // guarded by mutex_
};

std::vector<Arrival> everyMs(std::size_t n, double gapMs) {
    std::vector<Arrival> s(n);
    for (std::size_t i = 0; i < n; ++i) {
        s[i].dueMs = gapMs * static_cast<double>(i);
        s[i].session = 1;
    }
    return s;
}

void testOpenLoop() {
    // Arrivals every 5 ms; submit #10 (due at 50 ms) stalls for 60 ms, so
    // arrivals due at 55..105 ms are sent when it returns, ~110 ms.
    FakeEndpoint stalling(10, 60.0);
    const OpenLoopResult r = runOpenLoop(stalling, everyMs(40, 5.0), 1000.0);
    bool once = true;
    for (const ArrivalResult& a : r.results)
        once = once && a.resolutions == 1 && !a.threw;
    expect(once, "every future of a stalling endpoint resolves exactly once");
    expect(r.unresolved == 0, "nothing is left unresolved");
    expect(r.results[10].latencyMs() >= 55.0,
           "the stalled event is timed from its due time");
    expect(r.results[11].lateMs() >= 40.0, "the event behind the stall is sent late");
    expect(r.results[11].latencyMs() >= r.results[11].lateMs(),
           "latency from the due time includes the generator's lateness");
    const ArrivalResult& queued = r.results[12];
    expect(queued.latencyMs() - (queued.doneMs - queued.sentMs) >= 35.0,
           "the stall is charged to the events queued behind it");
    std::vector<double> late;
    for (const ArrivalResult& a : r.results) late.push_back(a.lateMs());
    expect(percentile(late, 99) > kMaxGeneratorLateP99Ms,
           "a stall beyond the bound makes the run invalid");
    expect(r.results[39].lateMs() < 20.0, "the generator catches up after the stall");

    FakeEndpoint prompt(~std::size_t{0}, 0.0);
    const OpenLoopResult ok = runOpenLoop(prompt, everyMs(40, 2.0), 1000.0);
    std::vector<double> okLate;
    for (const ArrivalResult& a : ok.results) okLate.push_back(a.lateMs());
    expect(percentile(okLate, 99) < kMaxGeneratorLateP99Ms,
           "a prompt endpoint keeps the generator on schedule");

    FakeEndpoint silent(~std::size_t{0}, 0.0, false);
    const OpenLoopResult lost = runOpenLoop(silent, everyMs(5, 1.0), 50.0);
    bool none = true;
    for (const ArrivalResult& a : lost.results) none = none && a.resolutions == 0;
    expect(lost.unresolved == 5 && none, "futures that never resolve are counted");
}

// -- replay equality ---------------------------------------------------------

void testReplayEquality() {
    md::TrajectoryGenerator::Parameters p;
    p.frames = 6;
    p.seed = 3;
    const md::Trajectory traj =
        md::TrajectoryGenerator(p).generate(md::lambdaRepressor());
    viz::RinWidgetOptions options;
    options.wireFormat = viz::WireFormat::Binary;
    viz::RinWidget widget(traj, options);
    ShadowWidget shadow(traj, options, nullptr);

    using Kind = SliderStep::Kind;
    const std::vector<SliderStep> steps = {
        {.kind = Kind::Frame, .frame = 1},
        {.kind = Kind::Cutoff, .cutoff = 5.5},
        {.kind = Kind::Measure, .measure = viz::Measure::Betweenness},
        {.kind = Kind::Frame, .frame = 2},
        {.kind = Kind::Cutoff, .cutoff = 4.2},
        {.kind = Kind::Frame, .frame = 3},
    };

    std::vector<ReplayRecord> w, s;
    wire::FrameDecoder beforeLast;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        applyStep(widget, steps[i]);
        w.push_back(recordOf(widget.wireFrame(), widget.wireRefineFrame(),
                             widget.wireClient(), widget.scores()));
        if (i + 1 == steps.size()) beforeLast = shadow.wireClient();
        shadow.apply(steps[i], i + 1);
        s.push_back(
            recordOf(shadow.wireFrame(), {}, shadow.wireClient(), shadow.scores()));
    }
    std::string why;
    expect(compareReplay(w, s, &why) == Equality::Bytes,
           "the replay ships byte-equal frames " + why);

    // Ship the last frame with one byte flipped: the decoded state moves
    // (or the decoder rejects the frame and drops its state).
    wire::Bytes bad = shadow.wireFrame();
    bad[bad.size() / 2] ^= 0x5a;
    try {
        beforeLast.apply(bad);
    } catch (const wire::WireError&) {
    }
    std::vector<ReplayRecord> perturbed = s;
    perturbed.back() = recordOf(bad, {}, beforeLast, shadow.scores());
    expect(compareReplay(w, perturbed, nullptr) == Equality::Mismatch,
           "a perturbed frame is flagged");

    std::vector<ReplayRecord> reencoded = s;
    reencoded[2].frameHash ^= 1;
    expect(compareReplay(w, reencoded, nullptr) == Equality::Decoded,
           "different bytes with equal decoded state rank as decoded-equal");

    std::vector<ReplayRecord> widgetHalf = w, rounded = s;
    widgetHalf[3].clientScores[0] = rounded[3].clientScores[0] = 0.5f;
    rounded[3].clientScores[0] = std::nextafter(0.5f, 1.0f);
    rounded[3].frameHash ^= 1;
    expect(compareReplay(widgetHalf, rounded, nullptr) == Equality::Decoded,
           "decoded scores one float step apart (reordered sums) rank as decoded-equal");
    rounded[3].clientScores[0] = std::nextafter(rounded[3].clientScores[0], 1.0f);
    expect(compareReplay(widgetHalf, rounded, nullptr) == Equality::Mismatch,
           "decoded scores two float steps apart are flagged");

    std::vector<ReplayRecord> drifted = s;
    drifted[3].scores[0] += 1e-3;
    expect(compareReplay(w, drifted, nullptr) == Equality::Mismatch,
           "server scores beyond 1e-9 relative are flagged");

    expect(compareReplay(w, {s.begin(), s.end() - 1}, nullptr) == Equality::Mismatch,
           "a replay that misses events is flagged");
}

// -- score tiers -------------------------------------------------------------

void testScoreTiers() {
    Graph g(4); // a path 0-1-2-3
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    const viz::Measure m = viz::Measure::Closeness;
    const std::vector<double> ref = viz::computeMeasure(g, CsrView::fromGraph(g), m);
    std::vector<double> off = ref;
    off[1] += 0.05;
    const ScoreProvenance exact{viz::ResolutionTier::Exact, 0.0};
    const ScoreProvenance approx{viz::ResolutionTier::Approx, 0.01};
    expect(scoresWithinTierBound(g, m, ref, exact, nullptr), "exact scores pass");
    expect(!scoresWithinTierBound(g, m, off, exact, nullptr),
           "an exact score off by 0.05 fails");
    SoftFindings soft;
    expect(scoresWithinTierBound(g, m, off, approx, nullptr, &soft) &&
               soft.approxOutsideEps == 1,
           "an approximate score beyond epsilon is counted, not failed");
    expect(!scoresWithinTierBound(g, m, off, approx, nullptr),
           "an approximate score beyond epsilon fails with nowhere to count it");
}

} // namespace

int main() {
    testPercentiles();
    testOpenLoop();
    testReplayEquality();
    testScoreTiers();
    std::cout << (failures ? "selftest FAILED: " : "selftest passed: ") << failures
              << " failure(s)\n";
    return failures ? 1 : 0;
}
