// Node2Vec on a 2000-residue RIN with the batch pipeline's parameters
// (walkLength 10, walksPerNode 1, d 16, window 3, 2 negatives, seed 7):
// walk sampling plus skip-gram training, serial. The `emb_sum` counter is
// the sum of every embedding entry, so two builds that report the same
// value to the last digit most likely trained the same embedding.
//
//   bench_embedding_node2vec --json results.json [google-benchmark flags]
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

#include "src/embedding/node2vec.hpp"
#include "src/md/synthetic.hpp"
#include "src/rin/rin_builder.hpp"

namespace {

using namespace rinkit;

void BM_Node2Vec(benchmark::State& state) {
    static const Graph g = rin::RinBuilder(rin::DistanceCriterion::MinimumAtomDistance)
                               .build(md::helixBundle(2000), 4.5);
    Node2Vec::Parameters params;
    params.walkLength = 10;
    params.walksPerNode = 1;
    params.dimensions = 16;
    params.windowSize = 3;
    params.negativeSamples = 2;
    params.seed = 7;
    double sum = 0.0;
    for (auto _ : state) {
        Node2Vec n2v(g, params);
        n2v.run();
        sum = 0.0;
        for (const auto& row : n2v.features())
            for (double x : row) sum += x;
        benchmark::DoNotOptimize(sum);
    }
    state.counters["nodes"] = static_cast<double>(g.numberOfNodes());
    state.counters["edges"] = static_cast<double>(g.numberOfEdges());
    state.counters["emb_sum"] = sum;
}

BENCHMARK(BM_Node2Vec)->Unit(benchmark::kMillisecond);

} // namespace

RINKIT_BENCH_MAIN()
