// Speculative precompute + LOD progressive scenes — the numbers behind
// BENCH_speculative.json:
//
//   BM_SpeculativeSweep/<residues>/<schedule>   paced single-user drag
//       through a speculating SessionService. `monotone` is the workload
//       the predictor is built for (hit_rate is the headline number);
//       `adversarial` jumps randomly so every speculation is wasted —
//       its spec_cpu_ms bounds the idle-capacity cost of being wrong.
//       next_tick_ms is the mean server time of a spec-hit tick;
//       cachehit_ms is the pure cache-hit reference (a measure flip onto
//       an already-cached result on an unchanged graph): the acceptance
//       bar is next_tick_ms <= 1.5x cachehit_ms.
//
//   BM_ColdSceneLod/<residues>/<lod>   worst-case cutoff jumps on a
//       binary-wire widget: every jump re-keyframes the scene. client_ms
//       is modeled time-to-first-pixels; with LOD the keyframe ships
//       coarse-first, so client_ms drops ~4-fold (the LOD factor) and the refine
//       delta cost appears separately in client_refine_ms.
//
//   BM_InteractiveP99   closed-loop 32-client drag fleet, run twice per
//       iteration (speculation off and on, counterbalanced order so
//       machine drift cancels). p99_off_ms / p99_on_ms pool the
//       client-observed request latencies over all pairs; p99_ratio is
//       their ratio (pooling is the most run-to-run-stable tail
//       statistic on this oversubscribed 1-core box; the median of
//       per-pair ratios ships alongside as p99_pair_median).
//       scripts/verify.sh --speculate gates p99_ratio at <= 1.03 —
//       speculation must be invisible to interactive tails (it yields
//       to queued work and never enters admission or SLO accounting).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"

#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/serve/session_service.hpp"
#include "src/support/timer.hpp"
#include "src/viz/widget.hpp"

namespace {

using namespace rinkit;
using serve::SessionService;
using serve::SliderEvent;

md::Trajectory shortTrajectory(count residues) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 2;
    return md::TrajectoryGenerator(gen).generate(md::helixBundle(residues));
}

// Cutoff tick grid shared by the sweep schedules (0.1 A slider steps).
constexpr double kCutoffMin = 4.0;
constexpr double kCutoffMax = 7.5;
constexpr double kCutoffStep = 0.1;
constexpr int kCutoffTicks = static_cast<int>((kCutoffMax - kCutoffMin) / kCutoffStep) + 1;

double cutoffAt(int tick) { return kCutoffMin + kCutoffStep * tick; }

// One paced drag through a speculating service: submit a tick, wait for
// it, then let the service go idle so its speculation (if any) completes
// before the next tick judges it — the zero-latency-slider usage model.
void BM_SpeculativeSweep(benchmark::State& state, count residues, bool monotone) {
    const auto traj = shortTrajectory(residues);

    double hit = 0.0, judged = 0.0, ticks = 0.0;
    double hitMs = 0.0, missMs = 0.0, cacheHitMs = 0.0, cacheFlips = 0.0;
    serve::MetricsSnapshot snap;
    for (auto _ : state) {
        SessionService service;
        viz::RinWidget::Options wo;
        wo.speculate = true;
        const auto id = service.openSession(traj, wo);

        std::mt19937_64 rng(7);
        std::uniform_int_distribution<int> jump(0, kCutoffTicks - 1);
        int tick = 5, dir = 1;
        for (int i = 0; i < 24; ++i) {
            if (monotone) {
                if (tick + dir < 0 || tick + dir >= kCutoffTicks) dir = -dir;
                tick += dir;
            } else {
                tick = jump(rng);
            }
            const auto outcome =
                service.submit(id, SliderEvent::setCutoff(cutoffAt(tick))).get();
            ticks += 1.0;
            if (outcome.timing.specJudged) {
                judged += 1.0;
                if (outcome.timing.specHit) {
                    hit += 1.0;
                    hitMs += outcome.timing.serverMs();
                } else {
                    missMs += outcome.timing.serverMs();
                }
            }
            service.drain();
            service.waitSpeculationIdle();
        }

        // Pure cache-hit reference: flip between two measures whose exact
        // results are already cached for the current graph version — the
        // cheapest request the service can serve.
        service.submit(id, SliderEvent::setMeasure(viz::Measure::Degree)).get();
        service.submit(id, SliderEvent::setMeasure(viz::Measure::Closeness)).get();
        for (int i = 0; i < 6; ++i) {
            const auto outcome =
                service
                    .submit(id, SliderEvent::setMeasure(i % 2 == 0 ? viz::Measure::Degree
                                                                   : viz::Measure::Closeness))
                    .get();
            cacheHitMs += outcome.timing.serverMs();
            cacheFlips += 1.0;
        }
        service.drain();
        service.waitSpeculationIdle();
        service.closeSession(id);
        snap = service.metrics();
    }

    const double speculated = static_cast<double>(snap.counter("speculated"));
    state.SetLabel(monotone ? "monotone drag" : "adversarial jumps");
    state.counters["ticks"] = ticks;
    state.counters["hit_rate"] = ticks == 0.0 ? 0.0 : hit / ticks;
    state.counters["judged_rate"] = ticks == 0.0 ? 0.0 : judged / ticks;
    state.counters["next_tick_ms"] = hit == 0.0 ? 0.0 : hitMs / hit;
    state.counters["miss_tick_ms"] = (judged - hit) == 0.0 ? 0.0 : missMs / (judged - hit);
    state.counters["cachehit_ms"] = cacheFlips == 0.0 ? 0.0 : cacheHitMs / cacheFlips;
    // Idle-capacity accounting (last repetition's service): total CPU the
    // speculation path burned, and how much of it failed to pay off.
    state.counters["spec_cpu_ms"] = static_cast<double>(snap.counter("spec_cpu_ms"));
    state.counters["speculated"] = speculated;
    state.counters["wasted_frac"] =
        speculated == 0.0
            ? 0.0
            : static_cast<double>(snap.counter("spec_miss") +
                                  snap.counter("spec_cancelled")) /
                  speculated;
}

// Worst-case cutoff jumps on a binary-wire widget: each 4.5 <-> 7.5 jump
// churns most of the edge set, so the encoder re-keyframes — the fig-7
// client-time worst case. With LOD the keyframe ships coarse-first.
void BM_ColdSceneLod(benchmark::State& state, count residues, bool lod) {
    const auto traj = shortTrajectory(residues);
    viz::RinWidget::Options opts;
    opts.wireFormat = viz::WireFormat::Binary;
    opts.lodScenes = lod;
    viz::RinWidget widget(traj, opts);

    bool high = false;
    double firstMs = 0.0, refineMs = 0.0, keyframes = 0.0, lodFrames = 0.0;
    double patchElems = 0.0, bytes = 0.0, coarseNodes = 0.0;
    for (auto _ : state) {
        high = !high;
        const auto t = widget.setCutoff(high ? 7.5 : 4.5);
        if (t.wireKeyframe) {
            keyframes += 1.0;
            firstMs += t.clientMs;
            refineMs += t.clientRefineMs;
            patchElems += static_cast<double>(t.wirePatchElements);
            bytes += static_cast<double>(t.wireBytes);
            lodFrames += t.lodCoarse ? 1.0 : 0.0;
            coarseNodes += static_cast<double>(t.lodCoarseNodes);
        }
        benchmark::DoNotOptimize(t.totalMs());
    }
    state.SetLabel(lod ? "lod pair" : "full keyframe");
    state.counters["keyframes"] = keyframes;
    state.counters["client_ms"] = keyframes == 0.0 ? 0.0 : firstMs / keyframes;
    state.counters["client_refine_ms"] = keyframes == 0.0 ? 0.0 : refineMs / keyframes;
    state.counters["patch_elements"] = keyframes == 0.0 ? 0.0 : patchElems / keyframes;
    state.counters["wire_bytes"] = keyframes == 0.0 ? 0.0 : bytes / keyframes;
    state.counters["lod_rate"] = keyframes == 0.0 ? 0.0 : lodFrames / keyframes;
    state.counters["lod_coarse_nodes"] = lodFrames == 0.0 ? 0.0 : coarseNodes / lodFrames;
}

// One closed-loop fleet pass: 32 clients dragging concurrently, each
// waiting for its response before the next tick. Returns the
// client-observed latency of every request; spec counters accumulate
// into @p speculated / @p specCpuMs.
std::vector<double> fleetPass(const md::Trajectory& traj, bool speculate, double& speculated,
                              double& specCpuMs) {
    constexpr int kClients = 32;
    constexpr int kEventsPerClient = 12;

    SessionService service;
    viz::RinWidget::Options wo;
    wo.speculate = speculate;
    std::vector<serve::SessionId> ids;
    for (int c = 0; c < kClients; ++c) ids.push_back(service.openSession(traj, wo));

    std::vector<std::vector<double>> perClient(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&service, &ids, &perClient, c] {
            int tick = (c * 3) % kCutoffTicks, dir = c % 2 == 0 ? 1 : -1;
            for (int i = 0; i < kEventsPerClient; ++i) {
                if (tick + dir < 0 || tick + dir >= kCutoffTicks) dir = -dir;
                tick += dir;
                Timer wall;
                service
                    .submit(ids[static_cast<size_t>(c)], SliderEvent::setCutoff(cutoffAt(tick)))
                    .get();
                perClient[static_cast<size_t>(c)].push_back(wall.elapsedMs());
            }
        });
    }
    for (auto& t : clients) t.join();
    service.drain();
    service.waitSpeculationIdle();

    const auto snap = service.metrics();
    speculated += static_cast<double>(snap.counter("speculated"));
    specCpuMs += static_cast<double>(snap.counter("spec_cpu_ms"));
    std::vector<double> latencies;
    for (auto& v : perClient) latencies.insert(latencies.end(), v.begin(), v.end());
    return latencies;
}

// Speculation competes for the same pool as interactive work -- the gate
// is that interactive tails must not feel it. Both configurations run
// inside ONE benchmark in counterbalanced order (off/on, then on/off) so
// slow machine drift -- thermal throttling, background load -- cancels
// out of p99_ratio instead of penalizing whichever config runs later.
void BM_InteractiveP99(benchmark::State& state) {
    const auto traj = shortTrajectory(250);

    const auto at = [](std::vector<double>& v, double q) {
        if (v.empty()) return 0.0;
        std::sort(v.begin(), v.end());
        return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
    };

    std::vector<double> off, on, ratios;
    double speculated = 0.0, specCpuMs = 0.0, discard = 0.0;
    bool offFirst = true;
    for (auto _ : state) {
        std::vector<double> a, b;
        if (offFirst) {
            a = fleetPass(traj, false, discard, discard);
            b = fleetPass(traj, true, speculated, specCpuMs);
        } else {
            b = fleetPass(traj, true, speculated, specCpuMs);
            a = fleetPass(traj, false, discard, discard);
        }
        offFirst = !offFirst;
        const double pairOff = at(a, 0.99);
        if (pairOff > 0.0) ratios.push_back(at(b, 0.99) / pairOff);
        off.insert(off.end(), a.begin(), a.end());
        on.insert(on.end(), b.begin(), b.end());
    }

    state.counters["requests"] = static_cast<double>(off.size() + on.size());
    state.counters["p50_off_ms"] = at(off, 0.50);
    state.counters["p95_off_ms"] = at(off, 0.95);
    state.counters["p99_off_ms"] = at(off, 0.99);
    state.counters["p50_on_ms"] = at(on, 0.50);
    state.counters["p95_on_ms"] = at(on, 0.95);
    state.counters["p99_on_ms"] = at(on, 0.99);
    // The gate statistic is the POOLED p99 ratio over all counterbalanced
    // pairs: pooling 3456 samples per config lets the globally worst
    // passes (which dominate p99 and are matched in time across configs)
    // cancel, measured ~4x more stable run-to-run than the median of
    // per-pair ratios on this oversubscribed 1-core box. The pair median
    // ships as an auxiliary counter for cross-checking.
    state.counters["p99_ratio"] =
        at(off, 0.99) == 0.0 ? 0.0 : at(on, 0.99) / at(off, 0.99);
    state.counters["p99_pair_median"] = at(ratios, 0.50);
    state.counters["pairs"] = static_cast<double>(ratios.size());
    // How much speculative work actually ran under load: the idle-only
    // gate keeps this near zero while clients saturate the pool, which is
    // what makes the <=3% p99 bar meetable at all (what little runs sits
    // in the ramp-down as the closed loop empties).
    state.counters["speculated"] = speculated;
    state.counters["spec_cpu_ms"] = specCpuMs;
}

BENCHMARK_CAPTURE(BM_SpeculativeSweep, 1000_monotone, 1000, true)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK_CAPTURE(BM_SpeculativeSweep, 1000_adversarial, 1000, false)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK_CAPTURE(BM_SpeculativeSweep, 250_monotone, 250, true)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

BENCHMARK_CAPTURE(BM_ColdSceneLod, 1000_full, 1000, false)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(6);
BENCHMARK_CAPTURE(BM_ColdSceneLod, 1000_lod, 1000, true)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(6);
BENCHMARK_CAPTURE(BM_ColdSceneLod, 4000_full, 4000, false)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK_CAPTURE(BM_ColdSceneLod, 4000_lod, 4000, true)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

BENCHMARK(BM_InteractiveP99)->Unit(benchmark::kMillisecond)->Iterations(9);

} // namespace

RINKIT_BENCH_MAIN()
