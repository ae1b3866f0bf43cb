// Fig. 6 — "Time (ms) it takes to recalculate popular centrality and
// community detection measures on different RIN-networks."
//   (a) measure recompute at LOW cutoff (4.5 A)   - server side
//   (b) measure recompute at HIGH cutoff (7.5 A)  - server side
//   (c) whole update cycle as perceived on the client
//
// Paper shape to confirm: (a)/(b) are single-digit milliseconds for
// 100-1000-node RINs; (c) is roughly 10x larger; higher cutoff (more
// edges) is slower.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/viz/measures.hpp"
#include "src/viz/widget.hpp"

namespace {

using namespace rinkit;

md::Protein proteinOfSize(count residues) {
    if (residues == 73) return md::alpha3D();
    return md::helixBundle(residues);
}

const char* kMeasureLabels[] = {"Degree",      "Closeness", "Betweenness",
                                "PageRank",    "Eigenvector", "Katz",
                                "PLM",         "PLP"};

viz::Measure measureFromIndex(int i) {
    switch (i) {
    case 0: return viz::Measure::Degree;
    case 1: return viz::Measure::Closeness;
    case 2: return viz::Measure::Betweenness;
    case 3: return viz::Measure::PageRank;
    case 4: return viz::Measure::Eigenvector;
    case 5: return viz::Measure::Katz;
    case 6: return viz::Measure::PlmCommunities;
    default: return viz::Measure::PlpCommunities;
    }
}

// (a) + (b): pure measure recompute on the RIN (server side).
void BM_MeasureRecompute(benchmark::State& state) {
    const count residues = static_cast<count>(state.range(0));
    const int measureIdx = static_cast<int>(state.range(1));
    const bool highCutoff = state.range(2) != 0;
    const double cutoff = highCutoff ? 7.5 : 4.5;

    const auto protein = proteinOfSize(residues);
    const auto g =
        rin::RinBuilder(rin::DistanceCriterion::MinimumAtomDistance).build(protein, cutoff);
    const auto v = CsrView::fromGraph(g);

    for (auto _ : state) {
        auto scores = viz::computeMeasure(g, v, measureFromIndex(measureIdx));
        benchmark::DoNotOptimize(scores.data());
    }
    state.SetLabel(std::string(kMeasureLabels[measureIdx]) +
                   (highCutoff ? " @7.5A" : " @4.5A"));
    state.counters["nodes"] = static_cast<double>(g.numberOfNodes());
    state.counters["edges"] = static_cast<double>(g.numberOfEdges());
}

// (c): the whole update cycle as perceived on the client — widget event
// "measure changed": recompute + scene build + serialize + client update —
// once per payload format (--wire axis).
void BM_ClientPerceivedMeasureUpdate(benchmark::State& state, count residues,
                                     int measureIdx, bool highCutoff,
                                     viz::WireFormat wire) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 2;
    const auto traj = md::TrajectoryGenerator(gen).generate(proteinOfSize(residues));
    viz::RinWidget::Options opts;
    opts.initialCutoff = highCutoff ? 7.5 : 4.5;
    opts.wireFormat = wire;
    viz::RinWidget widget(traj, opts);

    // Per-phase counters come from the widget's spans (what --trace
    // exports), not from bespoke timing fields.
    benchsupport::SpanWindow window;
    double bytes = 0.0, keyframes = 0.0, patchElems = 0.0, cycles = 0.0;
    for (auto _ : state) {
        const auto t = widget.setMeasure(measureFromIndex(measureIdx));
        bytes += static_cast<double>(t.wireBytes);
        keyframes += t.wireKeyframe ? 1.0 : 0.0;
        patchElems += static_cast<double>(t.wirePatchElements);
        cycles += 1.0;
        benchmark::DoNotOptimize(t.totalMs());
    }
    state.SetLabel(std::string(kMeasureLabels[measureIdx]) +
                   (highCutoff ? " @7.5A" : " @4.5A"));
    state.counters["server_ms"] = window.phaseMeanMs("widget.measure");
    state.counters["client_ms"] = window.phaseMeanMs("widget.client");
    state.counters["wire_bytes"] = cycles == 0.0 ? 0.0 : bytes / cycles;
    if (wire == viz::WireFormat::Binary) {
        state.counters["keyframe_rate"] = cycles == 0.0 ? 0.0 : keyframes / cycles;
        state.counters["patch_elements"] = cycles == 0.0 ? 0.0 : patchElems / cycles;
    }
    // After the first recompute every repeat is a version-keyed cache hit,
    // so this sits near 1.0 — the cold cost lives in BM_MeasureRecompute.
    state.counters["measure_cache_hit"] = window.attrRate("engine.scores", "cache_hit");
    state.counters["edges"] = static_cast<double>(widget.graph().numberOfEdges());
}

// Runtime registration: the wire axis comes from the --wire flag, which
// static BENCHMARK registration (pre-main) cannot see.
void registerClientPerceived(const std::vector<std::string>& wires) {
    for (const auto& w : wires) {
        const auto fmt = w == "binary" ? viz::WireFormat::Binary : viz::WireFormat::Json;
        // The client-cycle variant is slower per iteration; restrict to
        // the paper-typical sizes and a measure subset to keep runtime
        // sane (Closeness, Betweenness, PLM).
        for (long residues : {200L, 500L, 1000L}) {
            for (int measure : {1, 2, 6}) {
                for (bool high : {false, true}) {
                    benchmark::RegisterBenchmark(
                        ("BM_ClientPerceivedMeasureUpdate/" + std::to_string(residues) +
                         "/m:" + std::to_string(measure) + (high ? "/hi" : "/lo") +
                         "/wire:" + w)
                            .c_str(),
                        BM_ClientPerceivedMeasureUpdate, static_cast<count>(residues),
                        measure, high, fmt)
                        ->Unit(benchmark::kMillisecond)
                        ->Iterations(3);
                }
            }
        }
    }
}

void configure(benchmark::internal::Benchmark* b) {
    for (long residues : {200L, 500L, 1000L}) {
        for (long measure = 0; measure < 8; ++measure) {
            for (long high : {0L, 1L}) {
                b->Args({residues, measure, high});
            }
        }
    }
    b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_MeasureRecompute)->Apply(configure);

} // namespace

RINKIT_BENCH_MAIN_WIRE(registerClientPerceived)
