// pipeline: batch analytics with no widget. For every frame of a seeded
// trajectory of a protein above the dynamic-state cap: RinBuilder::build,
// closeness, betweenness and PLM communities through computeMeasure, then a
// fixed-parameter Node2Vec embedding. The kernels get the whole machine.

#include <omp.h>

#include <memory>

#include "checks.hpp"
#include "src/community/partition.hpp"
#include "src/community/quality.hpp"
#include "src/embedding/node2vec.hpp"
#include "src/graph/csr_view.hpp"
#include "src/md/synthetic.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/viz/measures.hpp"
#include "workloads.hpp"

namespace rinbench {

using namespace rinkit;

namespace {

constexpr count kResidues = 2000; // above RinWidgetOptions::dynStateMaxNodes (1536)
constexpr count kFrames = 24;
constexpr double kCutoff = 4.5;
/// PLM moves nodes in parallel, so its partition depends on the thread
/// count; the stated bound is on the modularity it reaches.
constexpr double kPlmModularityTol = 0.02;

Node2Vec::Parameters embeddingParams() {
    Node2Vec::Parameters p;
    p.walkLength = 10;
    p.walksPerNode = 1;
    p.dimensions = 16;
    p.windowSize = 3;
    p.negativeSamples = 2;
    p.seed = 7;
    return p;
}

struct FrameOutput {
    Graph graph;
    std::vector<double> closeness, betweenness, plm;
    std::vector<std::vector<double>> embedding;
};

struct FrameCost {
    double buildMs = 0, closenessMs = 0, betweennessMs = 0, plmMs = 0, node2vecMs = 0;
    double totalMs = 0;
};

/// One frame of the pipeline; with @p log every kernel call is a span.
FrameOutput processFrame(const md::Protein& protein, SpanLog* log, std::uint64_t request,
                         FrameCost* cost) {
    FrameOutput out;
    FrameCost c;
    const auto t0 = Clock::now();
    const std::uint64_t root = log ? log->begin("pipeline.frame", 0, request) : 0;
    const rin::RinBuilder builder(rin::DistanceCriterion::MinimumAtomDistance);
    c.buildMs = timedCall(log, "rin.build", root, request,
                          [&] { out.graph = builder.build(protein, kCutoff); });
    const CsrView view = CsrView::fromGraph(out.graph);
    c.closenessMs = timedCall(log, "centrality.closeness", root, request, [&] {
        out.closeness = viz::computeMeasure(out.graph, view, viz::Measure::Closeness);
    });
    c.betweennessMs = timedCall(log, "centrality.betweenness", root, request, [&] {
        out.betweenness = viz::computeMeasure(out.graph, view, viz::Measure::Betweenness);
    });
    c.plmMs = timedCall(log, "community.plm", root, request, [&] {
        out.plm = viz::computeMeasure(out.graph, view, viz::Measure::PlmCommunities);
    });
    c.node2vecMs = timedCall(log, "embedding.node2vec", root, request, [&] {
        Node2Vec n2v(out.graph, embeddingParams());
        n2v.run();
        out.embedding = n2v.features();
    });
    c.totalMs = log ? log->end(root) : msSince(t0);
    if (cost) *cost = c;
    return out;
}

double plmModularity(const FrameOutput& f) {
    std::vector<index> assignment(f.plm.size());
    for (std::size_t i = 0; i < f.plm.size(); ++i)
        assignment[i] = static_cast<index>(f.plm[i]);
    return modularity(Partition(std::move(assignment)), f.graph);
}

bool withinRel(const std::vector<double>& a, const std::vector<double>& b, double tol) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!closeTo(b[i], a[i], tol)) return false;
    }
    return true;
}

/// A 1-thread and an nproc-thread run of one frame agree: equal edge sets,
/// centralities within the exact tolerance, PLM modularity within its
/// bound, identical embeddings.
void checkThreadInvariance(const md::Protein& protein, Tally& tally,
                           const std::string& where) {
    const int threads = omp_get_max_threads();
    omp_set_num_threads(1);
    const FrameOutput one = processFrame(protein, nullptr, 0, nullptr);
    omp_set_num_threads(threads);
    const FrameOutput many = processFrame(protein, nullptr, 0, nullptr);
    const std::string tag = where + " (1 vs " + std::to_string(threads) + " threads): ";
    tally.check(one.graph.numberOfEdges() > 0 &&
                    sortedEdges(one.graph) == sortedEdges(many.graph),
                tag + "edge sets differ");
    tally.check(withinRel(one.closeness, many.closeness, kExactRelTol),
                tag + "closeness differs");
    tally.check(withinRel(one.betweenness, many.betweenness, kExactRelTol),
                tag + "betweenness differs");
    tally.check(std::abs(plmModularity(one) - plmModularity(many)) <= kPlmModularityTol,
                tag + "PLM modularity differs by more than " + number(kPlmModularityTol));
    tally.check(one.embedding == many.embedding, tag + "Node2Vec embeddings differ");
}

} // namespace

RunResult runPipeline(const RunConfig& cfg) {
    RunResult r;
    MetricSheet& m = r.metrics;

    // Set-up: trajectory generation and per-frame conformations.
    std::vector<double> setups;
    std::vector<md::Protein> proteins;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        proteins.clear();
        const auto t0 = Clock::now();
        md::TrajectoryGenerator::Parameters p;
        p.frames = kFrames;
        p.seed = subSeed(cfg.seed, 1);
        const md::Trajectory traj =
            md::TrajectoryGenerator(p).generate(md::helixBundle(kResidues));
        for (count f = 0; f < traj.frameCount(); ++f)
            proteins.push_back(traj.proteinAtFrame(f));
        setups.push_back(msSince(t0) / 1000.0);
    }
    fillSetup(m, setups, r);

    const double budgetMs = cfg.seconds * 1000.0 * (cfg.trace ? 0.5 : 1.0);
    std::vector<double> latencies;
    double cpuMs = 0.0, frameMs = 0.0;
    const auto start = Clock::now();
    std::size_t frames = 0;
    while (msSince(start) < budgetMs || latencies.size() < kMinEvents) {
        const double cpu0 = processCpuMs();
        FrameCost c;
        try {
            const FrameOutput out =
                processFrame(proteins[frames % proteins.size()], nullptr, 0, &c);
            r.tally.check(out.graph.numberOfEdges() > 0, "frame built an empty RIN");
        } catch (const std::exception& e) {
            r.tally.fail(std::string("frame threw: ") + e.what());
        }
        cpuMs += processCpuMs() - cpu0;
        frameMs += c.totalMs;
        latencies.push_back(c.totalMs);
        ++r.tally.attempted;
        ++frames;
    }
    checkThreadInvariance(proteins.front(), r.tally, "frame 0");
    checkThreadInvariance(proteins[proteins.size() / 2], r.tally,
                          "frame " + std::to_string(proteins.size() / 2));

    fillLatency(m, latencies, r);
    m.set("ops_per_s", static_cast<double>(frames) / (frameMs / 1000.0), "1/s");
    m.set("cpu_ms_per_op", cpuMs / static_cast<double>(frames), "ms");
    m.set("proc.cpu_busy_frac", cpuMs / (frameMs * visibleCpus()), "fraction");

    if (cfg.trace) {
        SpanLog log;
        std::vector<double> build, close, betw, plm, n2v;
        double replayMs = 0.0, layerMs = 0.0;
        for (std::size_t k = 0; k < frames; ++k) {
            FrameCost c;
            processFrame(proteins[k % proteins.size()], &log, k + 1, &c);
            build.push_back(c.buildMs);
            close.push_back(c.closenessMs);
            betw.push_back(c.betweennessMs);
            plm.push_back(c.plmMs);
            n2v.push_back(c.node2vecMs);
            replayMs += c.totalMs;
            layerMs +=
                c.buildMs + c.closenessMs + c.betweennessMs + c.plmMs + c.node2vecMs;
        }
        m.set("rin.build_ms.p50", percentile(build, 50), "ms");
        m.set("centrality.closeness_ms.p50", percentile(close, 50), "ms");
        m.set("centrality.betweenness_ms.p50", percentile(betw, 50), "ms");
        m.set("community.plm_ms.p50", percentile(plm, 50), "ms");
        m.set("embedding.node2vec_ms.p50", percentile(n2v, 50), "ms");
        m.set("trace.overhead_frac", replayMs / frameMs - 1.0, "fraction");
        m.set("trace.unattributed_frac", 1.0 - layerMs / frameMs, "fraction");
        r.notes.push_back("trace bases: untraced " + number(frameMs) + " ms, traced " +
                          number(replayMs) + " ms, kernels " + number(layerMs) +
                          " ms over " + std::to_string(frames) + " frames");
        measureScaling(m, proteins.front(), &log);
        writeSpans(cfg, log, r);
    }
    m.set("peak_rss_mb", peakRssMb(), "MB");
    return r;
}

} // namespace rinbench
