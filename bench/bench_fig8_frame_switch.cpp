// Fig. 8 — "Time (ms) it takes to switch between different trajectory
// frames on different RIN-networks."
//   (g) network update at LOW cutoff   - DynamicRin::setFrame @ 4.5 A
//   (h) network update at HIGH cutoff  - same @ 7.5 A (more edges, slower)
//   (i) whole update cycle as perceived on the client; worst case when a
//       network measure is selected (paper: up to ~600 ms total for
//       ~1000-edge networks).
//
// Shape to confirm: frame switches cost like cutoff switches server-side,
// but the client adds MORE than for cutoff switches (every node moved, so
// all DOM elements update), and measure-selected frame switches are the
// maximum of the whole widget.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/rin/dynamic_rin.hpp"
#include "src/viz/widget.hpp"

namespace {

using namespace rinkit;

md::Protein proteinOfSize(count residues) {
    if (residues == 73) return md::alpha3D();
    return md::helixBundle(residues);
}

md::Trajectory wigglyTrajectory(count residues, count frames = 8) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = frames;
    gen.thermalSigma = 0.3;
    return md::TrajectoryGenerator(gen).generate(proteinOfSize(residues));
}

// (g) + (h): pure network update on a frame switch.
void BM_FrameNetworkUpdate(benchmark::State& state) {
    const count residues = static_cast<count>(state.range(0));
    const bool high = state.range(1) != 0;
    const auto traj = wigglyTrajectory(residues);
    rin::DynamicRin dyn(traj, rin::DistanceCriterion::MinimumAtomDistance,
                        high ? 7.5 : 4.5);

    // Qualified: the wire headers pull in <cstring>, whose glibc
    // strings.h companion puts ::index into scope and makes the
    // unqualified name ambiguous under `using namespace rinkit`.
    rinkit::index f = 0;
    for (auto _ : state) {
        f = (f + 1) % traj.frameCount();
        const auto stats = dyn.setFrame(f);
        benchmark::DoNotOptimize(stats.edgesTotal);
    }
    state.SetLabel(high ? "@7.5A" : "@4.5A");
    state.counters["edges"] = static_cast<double>(dyn.graph().numberOfEdges());
}

// (i): full widget frame-switch cycle, with and without an active
// measure, once per payload format (--wire axis).
void BM_ClientPerceivedFrameSwitch(benchmark::State& state, count residues,
                                   bool withMeasure, viz::WireFormat wire) {
    const auto traj = wigglyTrajectory(residues);
    viz::RinWidget::Options opts;
    if (!withMeasure) opts.initialMeasure = std::nullopt;
    opts.wireFormat = wire;
    viz::RinWidget widget(traj, opts);

    // Per-phase counters come from the widget's spans (what --trace
    // exports), not from bespoke timing fields. Without a measure no
    // widget.measure span is emitted and the counter reads 0, as before.
    // Two untimed trajectory laps: the warm-started layout drifts for the
    // first few relayouts and the binary encoder's quantization grid
    // converges with it, so the timed loop measures steady state for both
    // formats.
    for (int lap = 0; lap < 2; ++lap) {
        for (rinkit::index w = 1; w < traj.frameCount(); ++w) widget.setFrame(w);
        widget.setFrame(0);
    }

    benchsupport::SpanWindow window;
    rinkit::index f = 0;
    double bytes = 0.0, keyframes = 0.0, patchElems = 0.0, cycles = 0.0;
    for (auto _ : state) {
        f = (f + 1) % traj.frameCount();
        const auto t = widget.setFrame(f);
        bytes += static_cast<double>(t.wireBytes);
        keyframes += t.wireKeyframe ? 1.0 : 0.0;
        patchElems += static_cast<double>(t.wirePatchElements);
        cycles += 1.0;
        benchmark::DoNotOptimize(t.totalMs());
    }
    state.SetLabel(withMeasure ? "with measure (worst case)" : "no measure");
    state.counters["net_ms"] = window.phaseMeanMs("widget.network_update");
    state.counters["layout_ms"] = window.phaseMeanMs("widget.layout");
    state.counters["measure_ms"] = window.phaseMeanMs("widget.measure");
    state.counters["client_ms"] = window.phaseMeanMs("widget.client");
    state.counters["wire_bytes"] = cycles == 0.0 ? 0.0 : bytes / cycles;
    if (wire == viz::WireFormat::Binary) {
        state.counters["keyframe_rate"] = cycles == 0.0 ? 0.0 : keyframes / cycles;
        state.counters["patch_elements"] = cycles == 0.0 ? 0.0 : patchElems / cycles;
    }
    // Frame switches mutate the graph; hits can only appear if a frame's
    // edge diff happened to be empty (version unchanged). Expected ~0.
    state.counters["measure_cache_hit"] = window.attrRate("engine.scores", "cache_hit");
}

// Runtime registration: the wire axis comes from the --wire flag, which
// static BENCHMARK registration (pre-main) cannot see.
void registerClientPerceived(const std::vector<std::string>& wires) {
    for (const auto& w : wires) {
        const auto fmt = w == "binary" ? viz::WireFormat::Binary : viz::WireFormat::Json;
        for (long r : {73L, 250L, 1000L}) {
            for (bool withMeasure : {false, true}) {
                benchmark::RegisterBenchmark(
                    ("BM_ClientPerceivedFrameSwitch/" + std::to_string(r) +
                     (withMeasure ? "/measure:1" : "/measure:0") + "/wire:" + w)
                        .c_str(),
                    BM_ClientPerceivedFrameSwitch, static_cast<count>(r), withMeasure,
                    fmt)
                    ->Unit(benchmark::kMillisecond)
                    // Enough iterations to cycle the trajectory more than
                    // once: the binary encoder's grid converges during the
                    // first lap, so steady state is what gets measured.
                    ->Iterations(12);
            }
        }
    }
}

BENCHMARK(BM_FrameNetworkUpdate)->Unit(benchmark::kMillisecond)->Apply([](auto* b) {
    for (long r : {73L, 250L, 1000L}) {
        b->Args({r, 0L});
        b->Args({r, 1L});
    }
});
} // namespace

RINKIT_BENCH_MAIN_WIRE(registerClientPerceived)
