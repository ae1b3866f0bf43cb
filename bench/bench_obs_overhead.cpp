// Tracing-overhead guard — the obs layer's admission ticket.
//
// The tracer is always compiled in, so its cost must be provably small on
// the paper's hot path: the 1000-residue widget update cycle (edge diff +
// Maxent-Stress layout + scene build + serialize). This runs the same
// alternating cutoff-switch cycle with tracing disabled and enabled,
// *interleaved* (off, on, off, on, ...) so thermal / frequency drift hits
// both modes equally, and compares medians.
//
// The "on" mode carries the full serving-path observability stack, not
// just span recording: every cycle runs under a Force-sampled request
// root whose spans are buffered by an installed TailSampler (span-sink
// copy per span), gets a retention verdict at completion, and stamps an
// exemplar into a latency histogram — so the ≤threshold gate covers tail
// buffering and exemplar stamping too.
//
//   bench_obs_overhead [threshold_pct] [cycles_per_mode]
//
// Exit status 1 if the enabled median exceeds the disabled median by more
// than threshold_pct (default 3%). scripts/verify.sh --obs runs this as
// the regression gate. The default of 100 cycles per mode keeps the gate
// steady: on a 4-vCPU VM, 8 runs at 100 spread -3.2%...+2.2%, while 12
// runs at 25 spread -16.6%...+0.4% and passed or failed at random.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/metrics.hpp"
#include "src/viz/widget.hpp"

namespace {

using namespace rinkit;

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

int main(int argc, char** argv) {
    const double thresholdPct = argc > 1 ? std::atof(argv[1]) : 3.0;
    const count cyclesPerMode = argc > 2 ? static_cast<count>(std::atoll(argv[2])) : 100;

    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 2;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::helixBundle(1000));
    viz::RinWidget widget(traj);

    auto& tracer = obs::Tracer::global();
    tracer.setSampleEvery(1); // worst case: every cycle fully recorded

    // The serving-path tail stack, active whenever tracing is on: the
    // sampler's span sink sees every recorded span, and each cycle pays a
    // retention verdict plus an exemplar-stamped histogram record.
    obs::TailSampler sampler;
    sampler.install();
    serve::LatencyHistogram hist;

    // Warm up both code paths (first cycles pay allocator + cache warmup).
    bool high = false;
    for (int i = 0; i < 4; ++i) {
        tracer.setEnabled(i % 2 == 1);
        high = !high;
        widget.setCutoff(high ? 7.5 : 4.5);
    }

    // One sample is an up switch plus a down switch, summed: the two
    // directions cost very different amounts (cutoff increase adds edges,
    // decrease is a pure filter), so each mode must always measure both —
    // and the sum keeps the sample distribution unimodal, which makes the
    // median stable. The "on" half runs each switch as a tail-sampled
    // request root, exactly like the serving layer does.
    auto measurePair = [&](bool tracingOn) {
        double pairMs = 0.0;
        for (int direction = 0; direction < 2; ++direction) {
            high = !high;
            if (tracingOn) {
                const auto ctx = tracer.makeRootContext(obs::Sample::Force);
                obs::ContextScope scope(ctx);
                sampler.open(ctx.traceId);
                const auto t = widget.setCutoff(high ? 7.5 : 4.5);
                const double ms = t.serverMs();
                sampler.finish(ctx.traceId, {.latencyMs = ms});
                hist.record(ms, ctx.traceId, tracer.nowUs());
                pairMs += ms;
            } else {
                const auto t = widget.setCutoff(high ? 7.5 : 4.5);
                pairMs += t.serverMs();
            }
        }
        return pairMs;
    };

    // Paired design: each iteration measures one off-pair and one on-pair
    // back to back (order alternating so a warming trend cannot favor
    // either mode) and the verdict is the *median of the differences* —
    // slow machine-state drift affects both halves of an iteration alike
    // and cancels, which a comparison of independent medians cannot do.
    std::vector<double> offMs, onMs, deltaMs;
    offMs.reserve(cyclesPerMode);
    onMs.reserve(cyclesPerMode);
    deltaMs.reserve(cyclesPerMode);
    for (count i = 0; i < cyclesPerMode; ++i) {
        const bool onFirst = i % 2 == 1;
        tracer.setEnabled(onFirst);
        const double first = measurePair(onFirst);
        tracer.setEnabled(!onFirst);
        const double second = measurePair(!onFirst);
        const double off = onFirst ? second : first;
        const double on = onFirst ? first : second;
        offMs.push_back(off);
        onMs.push_back(on);
        deltaMs.push_back(on - off);
    }
    tracer.setEnabled(false);

    const double off = median(offMs);
    const double on = median(onMs);
    const double regressionPct = off > 0.0 ? median(deltaMs) / off * 100.0 : 0.0;
    std::printf("obs overhead guard: 1000-residue cutoff up+down pairs, %llu pairs/mode\n",
                static_cast<unsigned long long>(cyclesPerMode));
    const auto tailStats = sampler.stats();
    std::printf("  tail stack in 'on' mode: %llu roots buffered+ruled, %llu retained\n",
                static_cast<unsigned long long>(tailStats.finished),
                static_cast<unsigned long long>(tailStats.retainedTotal()));
    std::printf("  median pair server_ms tracing off: %.3f\n", off);
    std::printf("  median pair server_ms tracing on:  %.3f\n", on);
    std::printf("  median paired delta: %+.2f%% of off median (threshold %.2f%%)\n",
                regressionPct, thresholdPct);
    if (regressionPct > thresholdPct) {
        std::printf("FAIL: tracing overhead exceeds threshold\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
