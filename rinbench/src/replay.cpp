#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checks.hpp"
#include "src/layout/multilevel_maxent_stress.hpp"
#include "src/viz/scene.hpp"

namespace rinbench {

using namespace rinkit;

viz::RinWidget::UpdateTiming applyStep(viz::RinWidget& w, const SliderStep& step) {
    switch (step.kind) {
    case SliderStep::Kind::Frame: return w.setFrame(step.frame);
    case SliderStep::Kind::Cutoff: return w.setCutoff(step.cutoff);
    case SliderStep::Kind::Measure: return w.setMeasure(step.measure);
    }
    throw std::invalid_argument("applyStep: unknown kind");
}

namespace {

viz::MeasureEngine::Options engineOptions(const viz::RinWidgetOptions& o) {
    viz::MeasureEngine::Options e;
    e.dynamicMeasures = o.dynamicMeasures;
    e.dynStateMaxNodes = o.dynStateMaxNodes;
    e.seed = o.seed;
    return e;
}

} // namespace

ShadowWidget::ShadowWidget(const md::Trajectory& traj, viz::RinWidgetOptions options,
                           SpanLog* log, LayerCost* coldCost)
    : options_(options),
      log_(log),
      rin_(traj, options.criterion, options.initialCutoff, options.initialFrame),
      engine_(engineOptions(options)),
      measure_(options.initialMeasure),
      encoder_(wire::DeltaEncoderOptions{options.wireKeyframeInterval}) {
    if (options.wireFormat != viz::WireFormat::Binary || options.lodScenes ||
        options.speculate || !options.autoRecompute ||
        (options.initialMeasure && viz::isCommunityMeasure(*options.initialMeasure)))
        throw std::invalid_argument("ShadowWidget: unsupported widget options");
    // The widget constructor's refresh(): rebuild, drop dynamic state,
    // cold layout, measure, full-edge keyframe.
    LayerCost c;
    const auto t0 = Clock::now();
    const std::uint64_t root = log_ ? log_->begin("replay.refresh", 0, 0) : 0;
    c.rinMs = timedCall(log_, "rin.rebuild", root, 0, [&] { rin_.rebuild(); });
    engine_.invalidateDynamic();
    layout(c, root, 0);
    measure(c, root, 0);
    ship(c, EdgeDelta::Full, root, 0);
    c.totalMs = log_ ? log_->end(root) : msSince(t0);
    if (coldCost) *coldCost = c;
}

LayerCost ShadowWidget::apply(const SliderStep& step, std::uint64_t request) {
    LayerCost c;
    const auto t0 = Clock::now();
    const std::uint64_t root = log_ ? log_->begin("replay.event", 0, request) : 0;
    if (step.kind == SliderStep::Kind::Measure) {
        if (viz::isCommunityMeasure(step.measure))
            throw std::invalid_argument("ShadowWidget: community measures unsupported");
        measure_ = step.measure;
        measure(c, root, request);
        ship(c, EdgeDelta::None, root, request);
    } else {
        c.graphMoved = true;
        const std::uint64_t preVersion = rin_.graph().version();
        rin::DynamicRin::UpdateStats stats;
        c.rinMs = timedCall(log_, "rin.update", root, request, [&] {
            stats = step.kind == SliderStep::Kind::Frame ? rin_.setFrame(step.frame)
                                                         : rin_.setCutoff(step.cutoff);
        });
        c.edgesChanged = stats.edgesAdded + stats.edgesRemoved;
        c.measureMs += timedCall(log_, "measures.note_diff", root, request, [&] {
            engine_.noteDiff(rin_.graph(), preVersion, rin_.lastAdded(),
                             rin_.lastRemoved());
        });
        layout(c, root, request);
        measure(c, root, request);
        ship(c, EdgeDelta::Diffed, root, request);
    }
    c.totalMs = log_ ? log_->end(root) : msSince(t0);
    return c;
}

void ShadowWidget::layout(LayerCost& c, std::uint64_t parent, std::uint64_t request) {
    const Graph& g = rin_.graph();
    const bool warm = coords_.size() == g.numberOfNodes();
    c.layoutWarm = warm;
    if (!warm && options_.multilevelLayout) {
        MultilevelMaxentStress::Parameters params;
        params.sweep.seed = options_.seed;
        MultilevelMaxentStress solver(g, 3, params);
        solver.setWorkspace(&workspace_);
        c.layoutMs =
            timedCall(log_, "layout.cold", parent, request, [&] { solver.run(); });
        coords_ = solver.getCoordinates();
        c.layoutIterations = solver.iterationsDone();
        return;
    }
    MaxentStress::Parameters params;
    params.iterations = options_.layoutIterations;
    params.warmStartIterations = options_.layoutWarmStartIterations;
    params.seed = options_.seed;
    MaxentStress solver(g, 3, params);
    solver.setWorkspace(&workspace_);
    if (warm) solver.setInitialCoordinates(coords_);
    c.layoutMs = timedCall(log_, warm ? "layout.warm" : "layout.cold", parent, request,
                           [&] { solver.run(); });
    coords_ = solver.getCoordinates();
    c.layoutIterations = solver.iterationsDone();
}

void ShadowWidget::measure(LayerCost& c, std::uint64_t parent, std::uint64_t request) {
    if (!measure_) return;
    c.measureRan = true;
    viz::MeasureEngine::Request req;
    req.tolerance = options_.measureErrorTolerance;
    c.measureMs += timedCall(log_, "measures.scores", parent, request, [&] {
        scores_ = engine_.scores(rin_.graph(), *measure_, req, &c.measureInfo);
    });
}

void ShadowWidget::ship(LayerCost& c, EdgeDelta delta, std::uint64_t parent,
                        std::uint64_t request) {
    const Graph& g = rin_.graph();
    std::vector<double> shown = scores_;
    if (shown.empty()) shown.assign(g.numberOfNodes(), 0.0);
    const bool needEdges = delta == EdgeDelta::Full;
    viz::Scene left, right;
    c.sceneMs = timedCall(log_, "scene.make", parent, request, [&] {
        left = viz::makeScene(g, rin_.protein().alphaCarbons(), shown, options_.palette,
                              "protein layout", needEdges);
        right = viz::makeScene(g, coords_, shown, options_.palette,
                               "Maxent-Stress layout", needEdges);
    });

    static const std::vector<std::pair<node, node>> kNoEdges;
    wire::EdgeDiffHint hint;
    if (delta == EdgeDelta::None) {
        hint.added = &kNoEdges;
        hint.removed = &kNoEdges;
    } else if (delta == EdgeDelta::Diffed) {
        hint.added = &rin_.lastAdded();
        hint.removed = &rin_.lastRemoved();
    }
    c.encodeMs = timedCall(log_, "wire.encode", parent, request, [&] {
        frame_ = encoder_.encode({&left, &right}, shown, client_.ack(),
                                 delta == EdgeDelta::Full ? nullptr : &hint);
    });
    c.wireBytes = frame_.size();
    c.keyframe = encoder_.lastStats().keyframe;

    wire::PatchStats patch;
    c.clientMs = timedCall(log_, "client.patch", parent, request, [&] {
        clientModel_.processWirePatch(frame_, client_, &patch);
    });
    c.patchElements = patch.elementsTouched();
}

namespace {

struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void pod(const T& v) {
        bytes(&v, sizeof(v));
    }
};

} // namespace

ReplayRecord recordOf(const wire::Bytes& frame, const wire::Bytes& refine,
                      const wire::FrameDecoder& client,
                      const std::vector<double>& scores) {
    ReplayRecord r;
    Fnv f;
    f.bytes(frame.data(), frame.size());
    f.pod(std::uint64_t{0xfeed});
    f.bytes(refine.data(), refine.size());
    r.frameHash = f.h;

    Fnv s;
    s.pod(client.ack().epoch);
    s.pod(client.ack().seq);
    for (const auto& [u, v] : client.edges()) {
        s.pod(u);
        s.pod(v);
    }
    for (const wire::ViewState& view : client.views()) {
        s.bytes(view.title.data(), view.title.size());
        for (double d : {view.grid.lo.x, view.grid.lo.y, view.grid.lo.z, view.grid.hi.x,
                         view.grid.hi.y, view.grid.hi.z, view.nodeSize})
            s.pod(d);
        for (const auto& q : view.qpos) s.bytes(q.data(), sizeof(q));
        for (std::uint32_t c : view.colorIndex) s.pod(c);
        for (const viz::Color& c : view.palette) {
            s.pod(c.r);
            s.pod(c.g);
            s.pod(c.b);
        }
    }
    r.stateHash = s.h;
    r.clientScores = client.scores();
    r.scores = scores;
    return r;
}

const char* equalityName(Equality e) {
    switch (e) {
    case Equality::Bytes: return "byte-equal wire frames";
    case Equality::Decoded: return "equal decoded client state";
    case Equality::Mismatch: return "mismatch";
    }
    return "?";
}

Equality compareReplay(const std::vector<ReplayRecord>& widget,
                       const std::vector<ReplayRecord>& replay, std::string* why) {
    const auto fail = [&](const std::string& msg) {
        if (why) *why = msg;
        return Equality::Mismatch;
    };
    if (widget.size() != replay.size())
        return fail("event counts differ: " + std::to_string(widget.size()) + " vs " +
                    std::to_string(replay.size()));
    if (widget.empty()) return fail("no events to compare");
    bool bytesEqual = true;
    for (std::size_t i = 0; i < widget.size(); ++i) {
        const ReplayRecord& a = widget[i];
        const ReplayRecord& b = replay[i];
        const std::string at = " at event " + std::to_string(i);
        if (a.stateHash != b.stateHash)
            return fail("decoded client edges or views differ" + at);
        if (a.scores.size() != b.scores.size())
            return fail("score vector sizes differ" + at);
        for (std::size_t k = 0; k < a.scores.size(); ++k) {
            if (!closeTo(b.scores[k], a.scores[k], 1e-9))
                return fail("scores differ" + at + ", node " + std::to_string(k));
        }
        if (a.clientScores.size() != b.clientScores.size())
            return fail("decoded score counts differ" + at);
        for (std::size_t k = 0; k < a.clientScores.size(); ++k) {
            // One float rounding step, or the near-zero floor of closeTo.
            const double x = a.clientScores[k], y = b.clientScores[k];
            const double step = 0x1.0p-23 * std::max(std::abs(x), std::abs(y));
            if (!(std::abs(x - y) <= step + 1e-12))
                return fail("decoded scores differ" + at + ", node " + std::to_string(k));
        }
        if (a.frameHash != b.frameHash) bytesEqual = false;
    }
    return bytesEqual ? Equality::Bytes : Equality::Decoded;
}

} // namespace rinbench
