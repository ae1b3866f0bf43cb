#pragma once

// Correctness checks made from outside the program: every output the
// workloads read is compared against an independent fresh computation
// through the public API.

#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/md/trajectory.hpp"
#include "src/viz/widget.hpp"

namespace rinbench {

/// Which tier produced a widget's scores, and its stated error bound.
struct ScoreProvenance {
    rinkit::viz::ResolutionTier tier = rinkit::viz::ResolutionTier::Exact;
    double epsilon = 0.0;
};

/// Relative tolerance for exact-tier scores: floating-point reduction order
/// may differ between kernels and thread counts, the value may not.
inline constexpr double kExactRelTol = 1e-9;
/// Relative tolerance for scores repaired by the dynamic tier.
inline constexpr double kDynamicRelTol = 1e-7;

/// |value - ref| within @p rel of |ref|, plus an absolute floor of 1e-12
/// for scores that should be 0 (the measures' scores are normalized).
inline bool closeTo(double value, double ref, double rel) {
    return std::abs(value - ref) <= rel * std::abs(ref) + 1e-12;
}

/// Sorted (u < v) edge list of @p g.
std::vector<std::pair<rinkit::node, rinkit::node>> sortedEdges(const rinkit::Graph& g);

/// @p g equals a fresh RinBuilder::build of (@p frame, @p cutoff).
bool edgesMatchFreshBuild(const rinkit::Graph& g, const rinkit::md::Trajectory& traj,
                          rinkit::index frame, double cutoff, std::string* why);

/// Score readings that are not failures: stale results describe an older
/// graph and are not comparable, and an Approx-tier result keeps its epsilon
/// bound only with probability 1 - delta (delta = 0.1 by default), so a
/// node outside epsilon is within the engine's stated guarantee.
struct SoftFindings {
    std::uint64_t staleSkipped = 0;
    std::uint64_t approxOutsideEps = 0; ///< Approx-tier reads with a node beyond epsilon
    std::string firstApproxMiss;        ///< which node, by how much
};

/// @p scores equal computeMeasure(@p g, @p m) within the bound of the tier
/// that produced them. Exact and Dynamic are strict. Stale results pass and
/// count in @p soft; so do Approx results outside epsilon, which fail when
/// there is no @p soft to count them in.
bool scoresWithinTierBound(const rinkit::Graph& g, rinkit::viz::Measure m,
                           const std::vector<double>& scores, const ScoreProvenance& from,
                           std::string* why, SoftFindings* soft = nullptr);

/// The decoded client edges equal the server's, and the decoded Maxent
/// positions are within the quantization bound of @p maxent.
bool clientMatchesServer(const rinkit::wire::FrameDecoder& client, const rinkit::Graph& g,
                         const std::vector<rinkit::Point3>& maxent, std::string* why);

/// All of the above on a widget whose last update read @p from.
void checkWidget(const rinkit::viz::RinWidget& w, const rinkit::md::Trajectory& traj,
                 const ScoreProvenance& from, Tally& tally, const std::string& where,
                 SoftFindings* soft = nullptr);

} // namespace rinbench
