#include "src/community/plp.hpp"

#include "src/support/random.hpp"

namespace rinkit {

void Plp::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    zeta_ = Partition(n);
    zeta_.allToSingletons();
    iterations_ = 0;
    if (n == 0) {
        return;
    }

    const count* off = v.offsets();
    const node* tgt = v.targets();
    const edgeweight* wts = v.weights();

    std::vector<node> order(n);
    for (node u = 0; u < n; ++u) order[u] = u;
    Rng rng(seed_);
    rng.shuffle(order);

    std::vector<double> weightTo(n, 0.0);
    std::vector<index> touched;
    touched.reserve(64);
    const count threshold = std::max<count>(1, n / 100000);
    count updated = n;
    while (updated > threshold && iterations_ < maxIterations_) {
        updated = 0;
        ++iterations_;
        for (node u : order) {
            const count end = off[u + 1];
            if (off[u] == end) continue;

            touched.clear();
            for (count a = off[u]; a < end; ++a) {
                const index lab = zeta_[tgt[a]];
                if (weightTo[lab] == 0.0) touched.push_back(lab);
                weightTo[lab] += wts ? wts[a] : 1.0;
            }

            // Heaviest label. A node whose label is among the heaviest keeps
            // it (without this rule ties flip labels every round and the
            // stopping rule never fires); other ties are broken uniformly at
            // random so that symmetric structures don't deadlock.
            const index current = zeta_[u];
            double best = 0.0;
            for (index lab : touched) best = std::max(best, weightTo[lab]);
            index bestLab = current;
            if (weightTo[current] != best) {
                count tieCount = 0;
                for (index lab : touched) {
                    if (weightTo[lab] == best && rng.integer(++tieCount) == 0) bestLab = lab;
                }
            }
            for (index lab : touched) weightTo[lab] = 0.0;

            if (bestLab != current) {
                zeta_[u] = bestLab;
                ++updated;
            }
        }
    }
    zeta_.compact();
}

} // namespace rinkit
