#pragma once

#include <cstdint>

#include "src/community/community_detector.hpp"

namespace rinkit {

/// PLP — label propagation (Raghavan et al. 2007) as in NetworKit: every
/// node, in a seeded random order, adopts the label with the largest total
/// edge weight among its neighbors, until fewer than max(1, n / 100000)
/// nodes change per round. A node whose label is among the heaviest keeps
/// it. The rounds run serially, so the partition is a function of (graph,
/// seed) alone.
///
/// Near-linear work per round and very fast in practice, at the price of
/// lower modularity than the Louvain family — which is exactly the
/// trade-off the widget's measure menu exposes.
class Plp : public CommunityDetector {
public:
    explicit Plp(const Graph& g, count maxIterations = 100, std::uint64_t seed = 1)
        : CommunityDetector(g), maxIterations_(maxIterations), seed_(seed) {}

    /// Rounds the last run needed.
    count iterations() const { return iterations_; }

private:
    void runImpl(const CsrView& view) override;

    count maxIterations_;
    std::uint64_t seed_;
    count iterations_ = 0;
};

} // namespace rinkit
