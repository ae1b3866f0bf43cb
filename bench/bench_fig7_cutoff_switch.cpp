// Fig. 7 — "Time (ms) it takes to switch between different cut-off
// distances on different RIN-networks. Each switch consists of an edge
// update and a layout generation phase."
//   (d) NetworKit edge update           - DynamicRin::setCutoff
//   (e) Maxent-Stress layout generation - the dominant phase (paper:
//       300-400 ms on their hardware)
//   (f) whole update cycle as perceived on the client (+ ~100 ms)
//
// Shape to confirm: (e) dominates (d); (f) adds a client margin smaller
// than the frame-switch one (nodes don't move on a cutoff switch).
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

#include "src/layout/multilevel_maxent_stress.hpp"
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

md::Trajectory shortTrajectory(count residues) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 2;
    return md::TrajectoryGenerator(gen).generate(proteinOfSize(residues));
}

// (d): pure edge update, toggling low <-> high cutoff.
void BM_EdgeUpdate(benchmark::State& state) {
    const count residues = static_cast<count>(state.range(0));
    const auto traj = shortTrajectory(residues);
    rin::DynamicRin dyn(traj, rin::DistanceCriterion::MinimumAtomDistance, 4.5);

    bool high = false;
    for (auto _ : state) {
        high = !high;
        const auto stats = dyn.setCutoff(high ? 7.5 : 4.5);
        benchmark::DoNotOptimize(stats.edgesTotal);
    }
    state.counters["nodes"] = static_cast<double>(dyn.graph().numberOfNodes());
}

// (e): Maxent-Stress layout generation on the switched network — cold
// (unseeded), the widget's first-frame cost. arg2 picks the solver: 0 =
// single-level 30-iteration schedule (the pre-multilevel widget default),
// 1 = the multilevel V-cycle the widget now uses for cold layouts.
void BM_LayoutGeneration(benchmark::State& state) {
    const count residues = static_cast<count>(state.range(0));
    const bool high = state.range(1) != 0;
    const bool multilevel = state.range(2) != 0;
    const auto traj = shortTrajectory(residues);
    rin::DynamicRin dyn(traj, rin::DistanceCriterion::MinimumAtomDistance,
                        high ? 7.5 : 4.5);

    MaxentWorkspace ws;
    double stress = 0.0;
    for (auto _ : state) {
        if (multilevel) {
            MultilevelMaxentStress layout(dyn.graph(), 3);
            layout.setWorkspace(&ws);
            layout.run();
            stress = layoutStress(dyn.graph(), layout.getCoordinates());
            benchmark::DoNotOptimize(layout.getCoordinates().data());
        } else {
            MaxentStress::Parameters params;
            params.iterations = 30;
            MaxentStress layout(dyn.graph(), 3, params);
            layout.setWorkspace(&ws);
            layout.run();
            stress = layoutStress(dyn.graph(), layout.getCoordinates());
            benchmark::DoNotOptimize(layout.getCoordinates().data());
        }
    }
    state.SetLabel(std::string(high ? "@7.5A" : "@4.5A") +
                   (multilevel ? " multilevel" : " single-level"));
    state.counters["edges"] = static_cast<double>(dyn.graph().numberOfEdges());
    state.counters["stress"] = stress;
}

// (f): the whole widget cutoff-switch cycle incl. simulated client, once
// per payload format (--wire axis). The per-phase counters are derived
// from the spans the widget emits (the same data the --trace export
// shows); the wire counters come from the per-update timing fields.
void BM_ClientPerceivedCutoffSwitch(benchmark::State& state, count residues,
                                    viz::WireFormat wire, bool lod) {
    const auto traj = shortTrajectory(residues);
    viz::RinWidget::Options opts;
    opts.wireFormat = wire;
    opts.lodScenes = lod;
    viz::RinWidget widget(traj, opts);

    benchsupport::SpanWindow window;
    bool high = false;
    double bytes = 0.0, keyframes = 0.0, patchElems = 0.0, cycles = 0.0;
    double refineMs = 0.0, lodFrames = 0.0, lodNodes = 0.0, kfClientMs = 0.0;
    for (auto _ : state) {
        high = !high;
        const auto t = widget.setCutoff(high ? 7.5 : 4.5);
        bytes += static_cast<double>(t.wireBytes);
        keyframes += t.wireKeyframe ? 1.0 : 0.0;
        kfClientMs += t.wireKeyframe ? t.clientMs : 0.0;
        patchElems += static_cast<double>(t.wirePatchElements);
        refineMs += t.clientRefineMs;
        lodFrames += t.lodCoarse ? 1.0 : 0.0;
        lodNodes += static_cast<double>(t.lodCoarseNodes);
        cycles += 1.0;
        benchmark::DoNotOptimize(t.totalMs());
    }
    state.counters["edge_ms"] = window.phaseMeanMs("widget.network_update");
    state.counters["layout_ms"] = window.phaseMeanMs("widget.layout");
    state.counters["measure_ms"] = window.phaseMeanMs("widget.measure");
    // "widget.client" spans the first-pixels apply only; on LOD pairs the
    // refine delta's client cost is reported separately below.
    state.counters["client_ms"] = window.phaseMeanMs("widget.client");
    state.counters["wire_bytes"] = cycles == 0.0 ? 0.0 : bytes / cycles;
    if (wire == viz::WireFormat::Binary) {
        state.counters["keyframe_rate"] = cycles == 0.0 ? 0.0 : keyframes / cycles;
        state.counters["patch_elements"] = cycles == 0.0 ? 0.0 : patchElems / cycles;
        // First-pixels cost of just the keyframe cycles: the jump's delta
        // cycles are identical with and without LOD, so this is the
        // apples-to-apples column for the LOD time-to-first-pixels claim.
        state.counters["client_keyframe_ms"] =
            keyframes == 0.0 ? 0.0 : kfClientMs / keyframes;
    }
    if (lod) {
        state.counters["lod_rate"] = cycles == 0.0 ? 0.0 : lodFrames / cycles;
        state.counters["client_refine_ms"] = cycles == 0.0 ? 0.0 : refineMs / cycles;
        state.counters["lod_coarse_nodes"] =
            lodFrames == 0.0 ? 0.0 : lodNodes / lodFrames;
    }
    // Every cutoff switch mutates the graph (version bump), so the measure
    // cache must miss on each cycle — a nonzero value here is a bug.
    state.counters["measure_cache_hit"] = window.attrRate("engine.scores", "cache_hit");
}

// The delta-protocol workload: a user *dragging* the cutoff slider visits
// intermediate values, so each event churns a fraction of the edge set —
// exactly what delta frames exploit. The low<->high toggle above stays as
// the paper-faithful worst case (a jump that churns most of the edges).
void BM_ClientPerceivedCutoffSweep(benchmark::State& state, count residues,
                                   viz::WireFormat wire) {
    const auto traj = shortTrajectory(residues);
    viz::RinWidget::Options opts;
    opts.wireFormat = wire;
    viz::RinWidget widget(traj, opts);

    // 4.5 -> 7.5 -> 4.5 ladder in 0.5 A steps, as a slider drag delivers it.
    std::vector<double> ladder;
    for (double c = 4.5; c < 7.5; c += 0.5) ladder.push_back(c);
    for (double c = 7.5; c > 4.5; c -= 0.5) ladder.push_back(c);

    // One untimed lap: the warm-started layout expands for a few events
    // before settling, and the binary encoder's quantization grid converges
    // with it. Both formats get the same steady-state widget.
    for (const double c : ladder) widget.setCutoff(c);

    benchsupport::SpanWindow window;
    std::size_t step = 0;
    double bytes = 0.0, keyframes = 0.0, patchElems = 0.0, cycles = 0.0;
    for (auto _ : state) {
        step = (step + 1) % ladder.size();
        const auto t = widget.setCutoff(ladder[step]);
        bytes += static_cast<double>(t.wireBytes);
        keyframes += t.wireKeyframe ? 1.0 : 0.0;
        patchElems += static_cast<double>(t.wirePatchElements);
        cycles += 1.0;
        benchmark::DoNotOptimize(t.totalMs());
    }
    state.counters["edge_ms"] = window.phaseMeanMs("widget.network_update");
    state.counters["layout_ms"] = window.phaseMeanMs("widget.layout");
    state.counters["measure_ms"] = window.phaseMeanMs("widget.measure");
    state.counters["client_ms"] = window.phaseMeanMs("widget.client");
    state.counters["wire_bytes"] = cycles == 0.0 ? 0.0 : bytes / cycles;
    if (wire == viz::WireFormat::Binary) {
        state.counters["keyframe_rate"] = cycles == 0.0 ? 0.0 : keyframes / cycles;
        state.counters["patch_elements"] = cycles == 0.0 ? 0.0 : patchElems / cycles;
    }
}

// Registered at runtime (not via BENCHMARK) because the wire axis comes
// from the --wire flag, which static registration cannot see. The binary
// format gets an extra `binary+lod` row: the same toggle workload with
// LOD progressive scenes on, so the cost of a worst-case jump's keyframe
// can be read with and without the coarse-first path (below the LOD
// node-count gate the row degenerates to plain binary: lod_rate == 0).
void registerClientPerceived(const std::vector<std::string>& wires) {
    for (const auto& w : wires) {
        const auto fmt = w == "binary" ? viz::WireFormat::Binary : viz::WireFormat::Json;
        for (bool lod : {false, true}) {
            if (lod && fmt != viz::WireFormat::Binary) continue;
            const std::string axis = lod ? w + "+lod" : w;
            for (long r : {73L, 250L, 1000L}) {
                benchmark::RegisterBenchmark(
                    ("BM_ClientPerceivedCutoffSwitch/" + std::to_string(r) +
                     "/wire:" + axis)
                        .c_str(),
                    BM_ClientPerceivedCutoffSwitch, static_cast<count>(r), fmt, lod)
                    ->Unit(benchmark::kMillisecond)
                    ->Iterations(4);
                if (lod) continue; // the sweep rarely keyframes: no LOD axis
                benchmark::RegisterBenchmark(
                    ("BM_ClientPerceivedCutoffSweep/" + std::to_string(r) +
                     "/wire:" + axis)
                        .c_str(),
                    BM_ClientPerceivedCutoffSweep, static_cast<count>(r), fmt)
                    ->Unit(benchmark::kMillisecond)
                    ->Iterations(24);
            }
        }
    }
}

BENCHMARK(BM_EdgeUpdate)
    ->Unit(benchmark::kMillisecond)
    ->Arg(73)
    ->Arg(250)
    ->Arg(1000);
BENCHMARK(BM_LayoutGeneration)->Unit(benchmark::kMillisecond)->Apply([](auto* b) {
    for (long r : {73L, 250L, 1000L}) {
        for (long c : {0L, 1L}) {
            b->Args({r, c, 0L});
            b->Args({r, c, 1L});
        }
    }
});
} // namespace

RINKIT_BENCH_MAIN_WIRE(registerClientPerceived)
