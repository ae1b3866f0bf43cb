#include "src/centrality/pagerank.hpp"

#include <cmath>
#include <stdexcept>

#include "src/support/parallel.hpp"

namespace rinkit {

PageRank::PageRank(const Graph& g, double damping, double tol, count maxIterations,
                   Norm norm)
    : CentralityAlgorithm(g), damping_(damping), tol_(tol),
      maxIterations_(maxIterations), norm_(norm) {
    if (damping <= 0.0 || damping >= 1.0) {
        throw std::invalid_argument("PageRank: damping out of (0,1)");
    }
}

void PageRank::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    scores_.assign(n, 0.0);
    iterations_ = 0;
    if (n == 0) {
        return;
    }

    const count* off = v.offsets();
    const node* tgt = v.targets();
    const edgeweight* wts = v.weights(); // nullptr when unweighted

    const double uniform = 1.0 / static_cast<double>(n);
    std::vector<double> rank(n, uniform), next(n, 0.0), scaled(n, 0.0);

    for (iterations_ = 0; iterations_ < maxIterations_; ++iterations_) {
        // Dangling (isolated) nodes redistribute their mass uniformly.
        // Precompute rank[v] / wdeg(v) once per iteration so the gather
        // below is a pure O(m) pass instead of a divide per arc.
        const double danglingMass = orderedSum(n, [&](index u) {
            const double wd = v.weightedDegree(static_cast<node>(u));
            if (wd == 0.0) {
                scaled[u] = 0.0;
                return rank[u];
            }
            scaled[u] = rank[u] / wd;
            return 0.0;
        });

        const double base = (1.0 - damping_) * uniform + damping_ * danglingMass * uniform;
        parallelFor(n, [&](index ui) {
            const node u = static_cast<node>(ui);
            double in = 0.0;
            const count end = off[u + 1];
            if (wts) {
                for (count a = off[u]; a < end; ++a) in += scaled[tgt[a]] * wts[a];
            } else {
                for (count a = off[u]; a < end; ++a) in += scaled[tgt[a]];
            }
            next[u] = base + damping_ * in;
        });

        const double diff =
            orderedSum(n, [&](index u) { return std::abs(next[u] - rank[u]); });
        rank.swap(next);
        if (diff < tol_) {
            ++iterations_;
            break;
        }
    }

    if (norm_ == Norm::SizeInvariant) {
        for (auto& r : rank) r *= static_cast<double>(n);
    }
    scores_ = std::move(rank);
}

} // namespace rinkit
