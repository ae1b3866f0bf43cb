#include <omp.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string_view>

#include "src/graph/csr_view.hpp"
#include "src/layout/maxent_stress.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/viz/measures.hpp"
#include "workloads.hpp"

namespace rinbench {

using namespace rinkit;

const std::vector<MetricSpec>& endToEndMetrics() {
    static const std::vector<MetricSpec> specs = {
        {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"ops_per_s", "1/s"},
        {"cpu_ms_per_op", "ms"},  {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    };
    return specs;
}

namespace {

struct ScaleKernel {
    const char* name;
    const char* span;
};

constexpr ScaleKernel kScaleKernels[] = {{"contact", "scale.contact"},
                                         {"brandes", "scale.brandes"},
                                         {"msbfs_closeness", "scale.msbfs_closeness"},
                                         {"plm", "scale.plm"},
                                         {"maxent", "scale.maxent"}};

} // namespace

const std::vector<MetricSpec>& perLayerMetrics() {
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"rin.update_ms.p50", "ms"},
            {"rin.update_ms.p90", "ms"},
            {"rin.edges_changed.mean", "count"},
            {"rin.build_ms.p50", "ms"},
            {"layout.warm_ms.p50", "ms"},
            {"layout.warm_ms.p90", "ms"},
            {"layout.iterations.mean", "count"},
            {"layout.cold_ms", "ms"},
            {"measures.ms.p50", "ms"},
            {"measures.ms.p90", "ms"},
            {"measures.hit_frac", "fraction"},
            {"measures.dynamic_frac", "fraction"},
            {"measures.approx_frac", "fraction"},
            {"scene.ms.p50", "ms"},
            {"wire.encode_ms.p50", "ms"},
            {"wire.keyframe_frac", "fraction"},
            {"wire.lod_frac", "fraction"},
            {"wire.bytes.mean", "bytes"},
            {"client.ms.p50", "ms"},
            {"client.ms.p90", "ms"},
            {"client.patch_elements.mean", "count"},
            {"serve.submit_us.p50", "us"},
            {"serve.queue_ms.p50", "ms"},
            {"serve.queue_ms.p99", "ms"},
            {"serve.exec_ms.p50", "ms"},
            {"serve.exec_ms.p99", "ms"},
            {"serve.coalesced_frac", "fraction"},
            {"serve.rejected_frac", "fraction"},
            {"serve.inflight.max", "count"},
            {"gen.late_ms.p99", "ms"},
            {"centrality.closeness_ms.p50", "ms"},
            {"centrality.betweenness_ms.p50", "ms"},
            {"community.plm_ms.p50", "ms"},
            {"embedding.node2vec_ms.p50", "ms"},
            {"proc.cpu_busy_frac", "fraction"},
            {"trace.overhead_frac", "fraction"},
            {"trace.unattributed_frac", "fraction"},
            {"trace.replay_bytes_equal_frac", "fraction"},
        };
        for (const ScaleKernel& k : kScaleKernels) {
            s.push_back({std::string(k.span) + ".t1_ms", "ms"});
            s.push_back({std::string(k.span) + ".tN_ms", "ms"});
        }
        return s;
    }();
    return specs;
}

namespace {

double fraction(std::size_t hits, std::size_t total) {
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

} // namespace

void fillCycleLayers(MetricSheet& m, const std::vector<LayerCost>& events) {
    std::vector<double> rin, edges, warm, iters, meas, scene, enc, client, patch, bytes;
    std::size_t measured = 0, hits = 0, dynamic = 0, approx = 0, keyframes = 0, lod = 0;
    for (const LayerCost& c : events) {
        if (c.graphMoved) {
            rin.push_back(c.rinMs);
            edges.push_back(static_cast<double>(c.edgesChanged));
        }
        if (c.layoutWarm) {
            warm.push_back(c.layoutMs);
            iters.push_back(static_cast<double>(c.layoutIterations));
        }
        if (c.measureRan) {
            ++measured;
            meas.push_back(c.measureMs);
            hits += c.measureInfo.cacheHit;
            dynamic += c.measureInfo.tier == viz::ResolutionTier::Dynamic;
            approx += c.measureInfo.tier == viz::ResolutionTier::Approx;
        }
        scene.push_back(c.sceneMs);
        enc.push_back(c.encodeMs);
        client.push_back(c.clientMs);
        patch.push_back(static_cast<double>(c.patchElements));
        bytes.push_back(static_cast<double>(c.wireBytes));
        keyframes += c.keyframe;
        lod += c.lod;
    }
    m.set("rin.update_ms.p50", percentile(rin, 50), "ms");
    m.set("rin.update_ms.p90", percentile(rin, 90), "ms");
    m.set("rin.edges_changed.mean", mean(edges), "count");
    m.set("layout.warm_ms.p50", percentile(warm, 50), "ms");
    m.set("layout.warm_ms.p90", percentile(warm, 90), "ms");
    m.set("layout.iterations.mean", mean(iters), "count");
    m.set("measures.ms.p50", percentile(meas, 50), "ms");
    m.set("measures.ms.p90", percentile(meas, 90), "ms");
    m.set("measures.hit_frac", fraction(hits, measured), "fraction");
    m.set("measures.dynamic_frac", fraction(dynamic, measured), "fraction");
    m.set("measures.approx_frac", fraction(approx, measured), "fraction");
    m.set("scene.ms.p50", percentile(scene, 50), "ms");
    m.set("wire.encode_ms.p50", percentile(enc, 50), "ms");
    m.set("wire.keyframe_frac", fraction(keyframes, events.size()), "fraction");
    m.set("wire.lod_frac", fraction(lod, events.size()), "fraction");
    m.set("wire.bytes.mean", mean(bytes), "bytes");
    m.set("client.ms.p50", percentile(client, 50), "ms");
    m.set("client.ms.p90", percentile(client, 90), "ms");
    m.set("client.patch_elements.mean", mean(patch), "count");
}

void zeroUnsetLayers(MetricSheet& m) {
    for (const MetricSpec& spec : perLayerMetrics()) {
        if (!m.has(spec.name)) m.set(spec.name, 0.0, spec.unit);
    }
}

void measureScaling(MetricSheet& m, const md::Protein& protein, SpanLog* log) {
    constexpr int kReps = 3;
    const int threads = omp_get_max_threads();
    const rin::RinBuilder builder(rin::DistanceCriterion::MinimumAtomDistance);
    const Graph g = builder.build(protein, 4.5);
    const CsrView view = CsrView::fromGraph(g);
    const auto kernel = [&](const std::string_view name) -> std::function<void()> {
        if (name == "contact") return [&] { (void)builder.build(protein, 4.5); };
        if (name == "brandes")
            return [&] { (void)viz::computeMeasure(g, view, viz::Measure::Betweenness); };
        if (name == "msbfs_closeness")
            return [&] { (void)viz::computeMeasure(g, view, viz::Measure::Closeness); };
        if (name == "plm")
            return [&] {
                (void)viz::computeMeasure(g, view, viz::Measure::PlmCommunities);
            };
        return [&] {
            MaxentStress::Parameters params;
            params.iterations = 30;
            MaxentStress solver(g, 3, params);
            solver.run();
        };
    };
    const std::uint64_t root = log ? log->begin("scale", 0, 0) : 0;
    for (const ScaleKernel& k : kScaleKernels) {
        const std::function<void()> fn = kernel(k.name);
        for (int t : {1, threads}) {
            omp_set_num_threads(t);
            std::vector<double> ms;
            for (int r = 0; r < kReps; ++r)
                ms.push_back(timedCall(log, k.span, root, 0, fn));
            m.set(std::string(k.span) + (t == 1 ? ".t1_ms" : ".tN_ms"), median(ms), "ms");
        }
    }
    omp_set_num_threads(threads);
    if (log) log->end(root);
}

void fillSetup(MetricSheet& m, const std::vector<double>& setupSeconds, RunResult& r) {
    m.set("setup_s", median(setupSeconds), "s");
    std::string list;
    for (double s : setupSeconds) list += (list.empty() ? "" : ", ") + number(s);
    r.notes.push_back("set-up repetitions: " + list + " s");
}

void fillLatency(MetricSheet& m, const std::vector<double>& latencies, RunResult& r) {
    m.set("latency_p50_ms", percentile(latencies, 50), "ms");
    m.set("latency_p90_ms", percentile(latencies, 90), "ms");
    const double tail = tailPercentileFor(latencies.size());
    r.notes.push_back("latency samples: " + std::to_string(latencies.size()) +
                      "; highest percentile with >= 10 samples beyond it: p" +
                      number(tail) + " = " + number(percentile(latencies, tail)) + " ms");
    // How steady the run was: the median of each fifth of it, in time order.
    std::string fifths;
    const auto at = [&](std::size_t k) {
        return latencies.begin() + static_cast<std::ptrdiff_t>(k * latencies.size() / 5);
    };
    for (std::size_t k = 0; k < 5; ++k)
        fifths += (k ? ", " : "") + number(median(std::vector<double>(at(k), at(k + 1))));
    r.notes.push_back("latency p50 by fifth of the run: " + fifths + " ms");
    if (latencies.size() >= 1000)
        m.set("latency_p99_ms", percentile(latencies, 99), "ms");
    else
        r.notes.push_back("latency_p99_ms not reported: fewer than 1000 events");
}

void writeSpans(const RunConfig& cfg, const SpanLog& log, RunResult& r) {
    if (cfg.outDir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.outDir, ec);
    const std::string path =
        cfg.outDir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
    if (log.writeChromeTrace(path))
        r.notes.push_back("spans (" + std::to_string(log.spans().size()) +
                          ") written to " + path);
    else
        r.notes.push_back("could not write spans to " + path);
}

} // namespace rinbench
