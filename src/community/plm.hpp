#pragma once

#include <cstdint>

#include "src/community/community_detector.hpp"
#include "src/community/louvain_common.hpp"

namespace rinkit {

/// PLM — the Louvain method for modularity maximization as in NetworKit
/// (Staudt & Meyerhenke 2016), the algorithm behind the community coloring
/// in the paper's Fig. 3.
///
/// Multi-level scheme: sequential local moving in a seeded random node
/// order until stable, contraction of communities into super-nodes,
/// recursion, prolongation. The moves run serially: on RIN-sized graphs
/// OpenMP moves bought under 1 ms and made the partition depend on the
/// thread schedule (see EXPERIMENTS.md). With
/// `refine = true`, an additional local-moving pass runs after each
/// prolongation (the "PLM-R" variant), which typically buys a little extra
/// modularity for one more pass per level.
class Plm : public CommunityDetector {
public:
    explicit Plm(const Graph& g, bool refine = false, double gamma = 1.0,
                 std::uint64_t seed = 1)
        : CommunityDetector(g), refine_(refine), gamma_(gamma), seed_(seed) {}

    /// Local-moving on an explicit coarse graph; exposed for reuse by the
    /// Leiden refinement and for white-box tests. Starts from @p zeta and
    /// improves it in place; returns true iff at least one node moved.
    static bool localMoving(const louvain::CoarseGraph& cg, Partition& zeta,
                            double gamma, std::uint64_t seed);

private:
    void runImpl(const CsrView& view) override;

    bool refine_;
    double gamma_;
    std::uint64_t seed_;
};

} // namespace rinkit
