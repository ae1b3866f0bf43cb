#include "src/embedding/node2vec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/support/guide_table.hpp"
#include "src/support/random.hpp"

namespace rinkit {

Node2Vec::Node2Vec(const Graph& g, Parameters params) : g_(g), params_(params) {
    if (params.p <= 0.0 || params.q <= 0.0) {
        throw std::invalid_argument("Node2Vec: p and q must be positive");
    }
    if (params.dimensions == 0 || params.walkLength < 2) {
        throw std::invalid_argument("Node2Vec: degenerate dimensions/walkLength");
    }
}

void Node2Vec::sampleWalks() {
    const count n = g_.numberOfNodes();
    walks_.clear();
    walks_.reserve(n * params_.walksPerNode);
    Rng rng(params_.seed);

    for (count r = 0; r < params_.walksPerNode; ++r) {
        for (node start = 0; start < n; ++start) {
            if (g_.degree(start) == 0) continue;
            std::vector<node> walk;
            walk.reserve(params_.walkLength);
            walk.push_back(start);
            node prev = none;
            node cur = start;
            while (walk.size() < params_.walkLength) {
                const auto nbrs = g_.neighbors(cur);
                if (nbrs.empty()) break;
                // Second-order bias: weight 1/p to return to prev, 1 to
                // common neighbors of prev, 1/q to explore outward.
                // Rejection sampling keeps this O(1) memory.
                node chosen = none;
                if (prev == none) {
                    chosen = nbrs[rng.pick(nbrs.size())];
                } else {
                    const double wMax =
                        std::max({1.0, 1.0 / params_.p, 1.0 / params_.q});
                    for (int attempt = 0; attempt < 256; ++attempt) {
                        const node cand = nbrs[rng.pick(nbrs.size())];
                        double w;
                        if (cand == prev) {
                            w = 1.0 / params_.p;
                        } else if (g_.hasEdge(cand, prev)) {
                            w = 1.0;
                        } else {
                            w = 1.0 / params_.q;
                        }
                        if (rng.real01() * wMax <= w) {
                            chosen = cand;
                            break;
                        }
                    }
                    if (chosen == none) chosen = nbrs[rng.pick(nbrs.size())];
                }
                walk.push_back(chosen);
                prev = cur;
                cur = chosen;
            }
            walks_.push_back(std::move(walk));
        }
    }
}

void Node2Vec::train() {
    const count n = g_.numberOfNodes();
    const count d = params_.dimensions;
    Rng rng(params_.seed + 0x5bd1e995u);

    // Input (emb) and output (ctx) matrices as contiguous n x d blocks,
    // row u at offset u * d; emb is initialized small-random row by row.
    std::vector<double> emb(n * d);
    std::vector<double> ctx(n * d, 0.0);
    for (auto& x : emb) x = (rng.real01() - 0.5) / static_cast<double>(d);

    // Negative-sampling distribution proportional to degree^0.75; the guide
    // table answers exactly what std::lower_bound over the cdf would.
    std::vector<double> cdf(n, 0.0);
    double total = 0.0;
    for (node u = 0; u < n; ++u) {
        total += std::pow(static_cast<double>(g_.degree(u)), 0.75);
        cdf[u] = total;
    }
    const CdfGuideTable negatives(std::move(cdf));
    auto sampleNegative = [&]() {
        return static_cast<node>(negatives.lowerBound(rng.real01() * total));
    };

    auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
    std::vector<double> grad(d);

    for (count epoch = 0; epoch < params_.epochs; ++epoch) {
        const double lr = params_.learningRate *
                          (1.0 - static_cast<double>(epoch) /
                                     static_cast<double>(std::max<count>(params_.epochs, 1)));
        for (const auto& walk : walks_) {
            for (count i = 0; i < walk.size(); ++i) {
                double* const in = emb.data() + walk[i] * d;
                const count lo = i >= params_.windowSize ? i - params_.windowSize : 0;
                const count hi = std::min<count>(i + params_.windowSize, walk.size() - 1);
                for (count j = lo; j <= hi; ++j) {
                    if (j == i) continue;
                    const node context = walk[j];
                    std::fill(grad.begin(), grad.end(), 0.0);
                    // Positive pair + k negative samples.
                    for (count s = 0; s <= params_.negativeSamples; ++s) {
                        const bool positive = (s == 0);
                        const node target = positive ? context : sampleNegative();
                        if (!positive && target == context) continue;
                        double* const out = ctx.data() + target * d;
                        double dot = 0.0;
                        for (count k = 0; k < d; ++k) dot += in[k] * out[k];
                        const double g = (positive ? 1.0 : 0.0) - sigmoid(dot);
                        for (count k = 0; k < d; ++k) {
                            grad[k] += g * out[k];
                            out[k] += lr * g * in[k];
                        }
                    }
                    for (count k = 0; k < d; ++k) in[k] += lr * grad[k];
                }
            }
        }
    }

    emb_.resize(n);
    for (node u = 0; u < n; ++u)
        emb_[u].assign(emb.data() + u * d, emb.data() + (u + 1) * d);
}

void Node2Vec::run() {
    sampleWalks();
    train();
    hasRun_ = true;
}

const std::vector<std::vector<double>>& Node2Vec::features() const {
    if (!hasRun_) throw std::logic_error("Node2Vec: call run() first");
    return emb_;
}

double Node2Vec::cosineSimilarity(node u, node v) const {
    if (!hasRun_) throw std::logic_error("Node2Vec: call run() first");
    const auto& a = emb_.at(u);
    const auto& b = emb_.at(v);
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (count k = 0; k < a.size(); ++k) {
        dot += a[k] * b[k];
        na += a[k] * a[k];
        nb += b[k] * b[k];
    }
    if (na == 0.0 || nb == 0.0) return 0.0;
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

} // namespace rinkit
