#include "src/centrality/approx_closeness.hpp"

#include <cmath>
#include <stdexcept>

#include "src/components/csr_bfs.hpp"
#include "src/support/parallel.hpp"
#include "src/support/random.hpp"

namespace rinkit {

ApproxCloseness::ApproxCloseness(const Graph& g, Variant variant, double epsilon,
                                 double delta, std::uint64_t seed, bool normalized)
    : CentralityAlgorithm(g), variant_(variant), epsilon_(epsilon), delta_(delta),
      seed_(seed), normalized_(normalized) {
    if (epsilon <= 0.0 || epsilon >= 1.0)
        throw std::invalid_argument("ApproxCloseness: epsilon out of (0,1)");
    if (delta <= 0.0 || delta >= 1.0)
        throw std::invalid_argument("ApproxCloseness: delta out of (0,1)");
}

count ApproxCloseness::pivotsFor(count n, double epsilon, double delta) {
    if (n < 2) return 0;
    // Hoeffding + union bound over n vertices on [0,1] per-pivot
    // contributions: k = ln(2n/delta) / (2 eps^2).
    const double k =
        std::log(2.0 * static_cast<double>(n) / delta) / (2.0 * epsilon * epsilon);
    return static_cast<count>(std::ceil(k));
}

void ApproxCloseness::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    scores_.assign(n, 0.0);
    pivots_ = pivotsFor(n, epsilon_, delta_);
    achievedEps_ = 0.0;
    exactFallback_ = false;
    if (n < 2) return;

    if (pivots_ >= n) {
        // The bound needs at least as many BFS runs as the exact batched
        // kernel — run exact instead (and report a zero error bound).
        exactFallback_ = true;
        const DistanceSums sums = batchedDistanceSums(v);
        for (node u = 0; u < n; ++u) {
            if (variant_ == Variant::Harmonic) {
                const double sum = sums.sumInv[u];
                scores_[u] = normalized_ && n > 1 ? sum / static_cast<double>(n - 1) : sum;
            } else {
                const double sum = sums.sumDist[u];
                const count reached = sums.reached[u] + 1;
                if (reached <= 1 || sum == 0.0) continue;
                const double r = static_cast<double>(reached);
                double c = (r - 1.0) / sum;
                if (normalized_ && n > 1) c *= (r - 1.0) / static_cast<double>(n - 1);
                scores_[u] = c;
            }
        }
        return;
    }
    achievedEps_ = epsilon_;

    // Pivots drawn sequentially from one generator so the sample (and the
    // result) is independent of the thread count.
    Rng rng(seed_);
    std::vector<node> pivots(pivots_);
    for (auto& p : pivots) p = static_cast<node>(rng.pick(n));

    // Harmonic needs sum 1/d per node; Standard needs the reached count
    // and the distance sum, stored as [reach | dist].
    const bool harmonic = variant_ == Variant::Harmonic;
    std::vector<double> sums(harmonic ? n : 2 * n, 0.0);
    orderedAccumulate(
        pivots.size(), sums.size(), sums.data(), [&] { return CsrBfs(v); },
        [&](CsrBfs& bfs, index i, double* acc) {
            bfs.run(pivots[i]);
            for (node u : bfs.order()) {
                const double d = static_cast<double>(bfs.levelOf(u));
                if (harmonic) {
                    if (d > 0.0) acc[u] += 1.0 / d;
                } else {
                    acc[u] += 1.0;
                    acc[n + u] += d;
                }
            }
        });

    const double k = static_cast<double>(pivots_);
    const double nd = static_cast<double>(n);
    for (node u = 0; u < n; ++u) {
        if (harmonic) {
            // (n/k) * sum over pivots of 1/d estimates sum_t 1/d(t,u).
            const double sum = nd / k * sums[u];
            scores_[u] = normalized_ && n > 1 ? sum / (nd - 1.0) : sum;
        } else {
            // Estimated reached count and distance sum plugged into the
            // Wasserman-Faust composite (heuristic semantics; see header).
            const double rHat = nd / k * sums[u];
            const double sumHat = nd / k * sums[n + u];
            if (rHat <= 1.0 || sumHat == 0.0) continue;
            double c = (rHat - 1.0) / sumHat;
            if (normalized_ && n > 1) c *= (rHat - 1.0) / (nd - 1.0);
            scores_[u] = c;
        }
    }
}

} // namespace rinkit
