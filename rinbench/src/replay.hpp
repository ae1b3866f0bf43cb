#pragma once

// The traced per-layer replay: a shadow of viz::RinWidget's binary-wire
// update cycle assembled from the public layer entry points
// (DynamicRin, MeasureEngine, MaxentStress / MultilevelMaxentStress,
// makeScene, DeltaEncoder, ClientCostModel), each call wrapped in a span of
// the benchmark's own. Fed the same events as a widget it must leave the
// simulated client in the same state; compareReplay() says how closely.

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/layout/maxent_stress.hpp"
#include "src/rin/dynamic_rin.hpp"
#include "src/viz/client_model.hpp"
#include "src/viz/measures.hpp"
#include "src/viz/widget.hpp"
#include "src/wire/scene_frame.hpp"

namespace rinbench {

/// One slider event of a seeded drag or fleet stream.
struct SliderStep {
    enum class Kind { Frame, Cutoff, Measure };
    Kind kind = Kind::Frame;
    index frame = 0;
    double cutoff = 4.5;
    rinkit::viz::Measure measure = rinkit::viz::Measure::Closeness;
};

/// Applies @p step to a widget (the untraced path).
rinkit::viz::RinWidget::UpdateTiming applyStep(rinkit::viz::RinWidget& w,
                                               const SliderStep& step);

/// Per-layer cost of one update cycle: replayed, or program-reported (fleet).
struct LayerCost {
    double rinMs = 0.0;
    double measureMs = 0.0; ///< noteDiff + scores
    double layoutMs = 0.0;
    double sceneMs = 0.0;
    double encodeMs = 0.0;
    double clientMs = 0.0;  ///< coarse/only frame + refine frame
    double totalMs = 0.0;   ///< the whole replayed event
    bool graphMoved = false; ///< frame or cutoff event
    count edgesChanged = 0;
    bool layoutWarm = false; ///< a warm-started layout polish ran
    count layoutIterations = 0;
    bool measureRan = false;
    rinkit::viz::MeasureEngine::ResultInfo measureInfo;
    std::size_t wireBytes = 0;
    bool keyframe = false;
    bool lod = false;
    count patchElements = 0;

    double layersMs() const {
        return rinMs + measureMs + layoutMs + sceneMs + encodeMs + clientMs;
    }
};

/// Shadow of RinWidget for the binary wire without LOD scenes, delta view,
/// speculation, degradation or community measures: the drag workload's
/// configuration.
class ShadowWidget {
public:
    /// Runs the cold draw (the widget constructor's refresh()).
    ShadowWidget(const rinkit::md::Trajectory& traj,
                 rinkit::viz::RinWidgetOptions options, SpanLog* log,
                 LayerCost* coldCost = nullptr);

    LayerCost apply(const SliderStep& step, std::uint64_t request);

    const std::vector<double>& scores() const { return scores_; }
    const rinkit::wire::Bytes& wireFrame() const { return frame_; }
    const rinkit::wire::FrameDecoder& wireClient() const { return client_; }

private:
    enum class EdgeDelta { None, Diffed, Full };

    void layout(LayerCost& c, std::uint64_t parent, std::uint64_t request);
    void measure(LayerCost& c, std::uint64_t parent, std::uint64_t request);
    void ship(LayerCost& c, EdgeDelta delta, std::uint64_t parent, std::uint64_t request);

    rinkit::viz::RinWidgetOptions options_;
    SpanLog* log_;
    rinkit::rin::DynamicRin rin_;
    rinkit::viz::MeasureEngine engine_;
    std::optional<rinkit::viz::Measure> measure_;
    std::vector<double> scores_;
    std::vector<rinkit::Point3> coords_;
    rinkit::MaxentWorkspace workspace_;
    rinkit::wire::DeltaEncoder encoder_;
    rinkit::wire::FrameDecoder client_;
    rinkit::viz::ClientCostModel clientModel_;
    rinkit::wire::Bytes frame_;
};

/// What the client holds after one event, reduced for comparison.
struct ReplayRecord {
    std::uint64_t frameHash = 0; ///< shipped bytes (frame + refine frame)
    std::uint64_t stateHash = 0; ///< decoded client edges and views
    std::vector<float> clientScores; ///< decoded client scores
    std::vector<double> scores;      ///< server-side scores
};

ReplayRecord recordOf(const rinkit::wire::Bytes& frame, const rinkit::wire::Bytes& refine,
                      const rinkit::wire::FrameDecoder& client,
                      const std::vector<double>& scores);

/// Equality levels, strongest first: every shipped frame byte-equal, or
/// only the decoded client state equal. Parallel reductions may reorder
/// floating-point sums between runs, so both levels take server-side scores
/// within 1e-9 relative and decoded (float) scores one rounding step apart
/// as equal, with an absolute floor of 1e-12 for scores that should be 0.
/// Anything else is a mismatch.
enum class Equality { Bytes, Decoded, Mismatch };
const char* equalityName(Equality e);

Equality compareReplay(const std::vector<ReplayRecord>& widget,
                       const std::vector<ReplayRecord>& replay, std::string* why);

} // namespace rinbench
