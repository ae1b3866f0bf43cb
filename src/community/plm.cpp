#include "src/community/plm.hpp"

#include "src/support/random.hpp"

namespace rinkit {

namespace {

/// Scratch map for neighbor-community weights, reset in O(touched).
struct NeighborWeights {
    std::vector<double> weightTo;
    std::vector<index> touched;

    explicit NeighborWeights(count communities) : weightTo(communities, 0.0) {
        touched.reserve(64);
    }

    void add(index c, double w) {
        if (weightTo[c] == 0.0) touched.push_back(c);
        weightTo[c] += w;
    }

    void reset() {
        for (index c : touched) weightTo[c] = 0.0;
        touched.clear();
    }
};

} // namespace

bool Plm::localMoving(const louvain::CoarseGraph& cg, Partition& zeta, double gamma,
                      std::uint64_t seed) {
    const count n = cg.csr.numberOfNodes();
    if (n == 0) return false;
    const double m = cg.totalWeight();
    if (m == 0.0) return false;
    const double m2sqInv = 1.0 / (2.0 * m * m);

    const count* off = cg.csr.offsets();
    const node* tgt = cg.csr.targets();
    const edgeweight* wts = cg.csr.weights();

    std::vector<double> volCom(n, 0.0);
    for (node u = 0; u < n; ++u) volCom[zeta[u]] += cg.volume(u);

    // Sequential moves in a seeded random order: each node sees every
    // earlier move, so the result is a function of (graph, seed) alone.
    std::vector<node> order(n);
    for (node u = 0; u < n; ++u) order[u] = u;
    Rng orderRng(seed);
    orderRng.shuffle(order);

    NeighborWeights nw(n);
    bool movedAny = false;
    bool movedThisRound = true;
    count rounds = 0;
    const count maxRounds = 32; // safety net; convergence is typical in < 10

    while (movedThisRound && rounds < maxRounds) {
        movedThisRound = false;
        ++rounds;
        for (node u : order) {
            const index cu = zeta[u];
            const double volU = cg.volume(u);

            nw.reset();
            const count end = off[u + 1];
            if (wts) {
                for (count a = off[u]; a < end; ++a) nw.add(zeta[tgt[a]], wts[a]);
            } else {
                for (count a = off[u]; a < end; ++a) nw.add(zeta[tgt[a]], 1.0);
            }

            // delta(u: C->D) = (w(u,D) - w(u,C\u))/m
            //                  - gamma * volU * (volD - (volC - volU)) / (2 m^2)
            const double wUC = nw.weightTo[cu];
            const double volCWithoutU = volCom[cu] - volU;
            index bestCom = cu;
            double bestDelta = 0.0;
            for (index d : nw.touched) {
                if (d == cu) continue;
                const double delta = (nw.weightTo[d] - wUC) / m -
                                     gamma * volU * (volCom[d] - volCWithoutU) * m2sqInv;
                if (delta > bestDelta + 1e-15) {
                    bestDelta = delta;
                    bestCom = d;
                }
            }

            if (bestCom != cu) {
                volCom[cu] -= volU;
                volCom[bestCom] += volU;
                zeta[u] = bestCom;
                movedThisRound = true;
            }
        }
        movedAny = movedAny || movedThisRound;
    }
    return movedAny;
}

void Plm::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    zeta_ = Partition(n);
    zeta_.allToSingletons();
    if (n == 0) {
        return;
    }

    auto cg = louvain::CoarseGraph::fromView(v);
    Partition level(n);
    level.allToSingletons();

    // Descend: local moving + contraction until the partition stabilizes.
    std::vector<louvain::CoarseGraph> levels;
    std::vector<Partition> levelPartitions;
    std::uint64_t seed = seed_;
    while (true) {
        Partition p(cg.csr.numberOfNodes());
        p.allToSingletons();
        const bool moved = localMoving(cg, p, gamma_, seed++);
        p.compact();
        if (!moved || p.numberOfSubsets() == cg.csr.numberOfNodes()) {
            break;
        }
        levels.push_back(cg);
        levelPartitions.push_back(p);
        cg = louvain::coarsen(cg, p);
    }

    // Ascend: compose the level partitions (with optional refinement).
    Partition result(cg.csr.numberOfNodes());
    result.allToSingletons();
    for (count li = levels.size(); li > 0; --li) {
        result = louvain::prolong(levelPartitions[li - 1], result);
        if (refine_) {
            localMoving(levels[li - 1], result, gamma_, seed++);
        }
    }
    zeta_ = std::move(result);
    zeta_.compact();
}

} // namespace rinkit
