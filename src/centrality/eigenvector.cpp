#include "src/centrality/eigenvector.hpp"

#include <cmath>

#include "src/support/parallel.hpp"

namespace rinkit {

namespace {

/// y[u] = sum over neighbors v of w(u,v) * x[v], streamed off CSR arrays.
inline void gather(const CsrView& v, const std::vector<double>& x,
                   std::vector<double>& y) {
    const count* off = v.offsets();
    const node* tgt = v.targets();
    const edgeweight* wts = v.weights();
    parallelFor(v.numberOfNodes(), [&](index ui) {
        const node u = static_cast<node>(ui);
        double sum = 0.0;
        const count end = off[u + 1];
        if (wts) {
            for (count a = off[u]; a < end; ++a) sum += wts[a] * x[tgt[a]];
        } else {
            for (count a = off[u]; a < end; ++a) sum += x[tgt[a]];
        }
        y[u] = sum;
    });
}

} // namespace

void EigenvectorCentrality::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    scores_.assign(n, 0.0);
    iterations_ = 0;
    if (n == 0) {
        return;
    }

    std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n)));
    std::vector<double> y(n, 0.0);

    for (iterations_ = 0; iterations_ < maxIterations_; ++iterations_) {
        gather(v, x, y);
        // Shifted iteration (A + I): identical eigenvectors, but the
        // dominant eigenvalue is strictly largest in magnitude even on
        // bipartite graphs (plain power iteration oscillates there).
        const double norm = std::sqrt(orderedSum(n, [&](index i) {
            y[i] += x[i];
            return y[i] * y[i];
        }));
        if (norm == 0.0) break; // edgeless graph
        const double diff = orderedSum(n, [&](index i) {
            y[i] /= norm;
            return std::abs(y[i] - x[i]);
        });
        x.swap(y);
        if (diff < tol_) {
            ++iterations_;
            break;
        }
    }
    scores_ = std::move(x);
    // Edgeless graphs have no meaningful eigenvector; report zeros.
    if (v.numberOfEdges() == 0) scores_.assign(n, 0.0);
}

void KatzCentrality::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    scores_.assign(n, 0.0);
    if (n == 0) {
        return;
    }

    effectiveAlpha_ = alpha_ > 0.0
                          ? alpha_
                          : 1.0 / (static_cast<double>(v.maxDegree()) + 1.0);

    std::vector<double> x(n, 0.0), y(n, 0.0);
    for (count it = 0; it < maxIterations_; ++it) {
        gather(v, x, y);
        const double diff = orderedSum(n, [&](index i) {
            y[i] = effectiveAlpha_ * y[i] + beta_;
            return std::abs(y[i] - x[i]);
        });
        x.swap(y);
        if (diff < tol_) break;
    }
    scores_ = std::move(x);
}

} // namespace rinkit
