#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "src/graph/csr_view.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/viz/measures.hpp"

namespace rinbench {

using namespace rinkit;

std::vector<std::pair<node, node>> sortedEdges(const Graph& g) {
    auto edges = g.edges();
    for (auto& [u, v] : edges) {
        if (u > v) std::swap(u, v);
    }
    std::sort(edges.begin(), edges.end());
    return edges;
}

bool edgesMatchFreshBuild(const Graph& g, const md::Trajectory& traj, index frame,
                          double cutoff, std::string* why) {
    const rin::RinBuilder builder(rin::DistanceCriterion::MinimumAtomDistance);
    const Graph fresh = builder.build(traj.proteinAtFrame(frame), cutoff);
    if (fresh.numberOfNodes() == g.numberOfNodes() &&
        sortedEdges(fresh) == sortedEdges(g))
        return true;
    if (why)
        *why = "edge set differs from a fresh build at frame " + std::to_string(frame) +
               ", cutoff " + number(cutoff) + " (" + std::to_string(g.numberOfEdges()) +
               " vs " + std::to_string(fresh.numberOfEdges()) + " edges)";
    return false;
}

bool scoresWithinTierBound(const Graph& g, viz::Measure m,
                           const std::vector<double>& scores, const ScoreProvenance& from,
                           std::string* why, SoftFindings* soft) {
    if (from.tier == viz::ResolutionTier::Stale) {
        if (soft) ++soft->staleSkipped;
        return true;
    }
    if (viz::isCommunityMeasure(m)) {
        if (why) *why = "community measures have no per-node reference";
        return false;
    }
    const std::vector<double> ref = viz::computeMeasure(g, CsrView::fromGraph(g), m);
    if (ref.size() != scores.size()) {
        if (why)
            *why = "score vector has " + std::to_string(scores.size()) +
                   " entries, expected " + std::to_string(ref.size());
        return false;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
        bool ok = true;
        switch (from.tier) {
        case viz::ResolutionTier::Exact:
            ok = closeTo(scores[i], ref[i], kExactRelTol);
            break;
        case viz::ResolutionTier::Dynamic:
            ok = closeTo(scores[i], ref[i], kDynamicRelTol);
            break;
        case viz::ResolutionTier::Approx:
            ok = std::abs(scores[i] - ref[i]) <= from.epsilon;
            if (!ok && soft) { // within the (epsilon, delta) guarantee
                if (soft->approxOutsideEps++ == 0)
                    soft->firstApproxMiss = viz::measureName(m) + " node " +
                                            std::to_string(i) + " off by " +
                                            number(std::abs(scores[i] - ref[i])) +
                                            " > epsilon " + number(from.epsilon);
                return true;
            }
            break;
        case viz::ResolutionTier::Stale: break;
        }
        if (!ok) {
            if (why)
                *why = viz::measureName(m) + " score of node " + std::to_string(i) +
                       " is " + number(scores[i]) + ", reference " + number(ref[i]) +
                       " (" + viz::tierName(from.tier) + " tier)";
            return false;
        }
    }
    return true;
}

bool clientMatchesServer(const wire::FrameDecoder& client, const Graph& g,
                         const std::vector<Point3>& maxent, std::string* why) {
    if (client.edges() != sortedEdges(g)) {
        if (why) *why = "decoded client edges differ from the server's";
        return false;
    }
    if (client.views().size() != 2) {
        if (why)
            *why = "client holds " + std::to_string(client.views().size()) + " views";
        return false;
    }
    const wire::ViewState& view = client.views()[1];
    const std::vector<Point3> decoded = view.positions();
    if (decoded.size() != maxent.size()) {
        if (why) *why = "decoded Maxent view has the wrong node count";
        return false;
    }
    const Point3 bound = view.grid.maxError();
    constexpr double kSlack = 1e-9;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        if (std::abs(decoded[i].x - maxent[i].x) > bound.x + kSlack ||
            std::abs(decoded[i].y - maxent[i].y) > bound.y + kSlack ||
            std::abs(decoded[i].z - maxent[i].z) > bound.z + kSlack) {
            if (why)
                *why = "decoded position of node " + std::to_string(i) +
                       " is outside the quantization bound";
            return false;
        }
    }
    return true;
}

void checkWidget(const viz::RinWidget& w, const md::Trajectory& traj,
                 const ScoreProvenance& from, Tally& tally, const std::string& where,
                 SoftFindings* soft) {
    std::string why;
    tally.check(edgesMatchFreshBuild(w.graph(), traj, w.frame(), w.cutoff(), &why),
                where + ": " + why);
    if (w.measure()) {
        why.clear();
        tally.check(scoresWithinTierBound(w.graph(), *w.measure(), w.scores(), from, &why,
                                          soft),
                    where + ": " + why);
    }
    why.clear();
    tally.check(clientMatchesServer(w.wireClient(), w.graph(), w.maxentLayout(), &why),
                where + ": " + why);
}

} // namespace rinbench
