#include "src/centrality/kadabra.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/components/diameter.hpp"
#include "src/support/random.hpp"

namespace rinkit {

namespace {

constexpr std::uint32_t kInf = 0xFFFFFFFFu;
constexpr count kRoundSize = 256;

/// One bidirectional-BFS path sampler; scratch is reused across samples and
/// reset by touched-list, so a sample costs only what it explores.
class BiSampler {
public:
    explicit BiSampler(const CsrView& v)
        : v_(v), ds_(v.numberOfNodes(), kInf), dt_(v.numberOfNodes(), kInf),
          ss_(v.numberOfNodes(), 0.0), st_(v.numberOfNodes(), 0.0) {}

    /// Samples a uniform shortest s-t path and adds 1 to cnt[w] for every
    /// interior vertex w. Returns false (no contribution) when s and t are
    /// disconnected.
    bool sample(node s, node t, Rng& rng, double* cnt) {
        reset();
        ds_[s] = 0;
        ss_[s] = 1.0;
        touchedS_.push_back(s);
        frontS_.assign(1, s);
        dt_[t] = 0;
        st_[t] = 1.0;
        touchedT_.push_back(t);
        frontT_.assign(1, t);

        std::uint32_t rs = 0, rt = 0, best = kInf;
        while (static_cast<std::uint64_t>(rs) + rt < best) {
            if (frontS_.empty() && frontT_.empty()) break; // disconnected
            if (pickSide())
                expand(frontS_, ds_, ss_, dt_, touchedS_, ++rs, best);
            else
                expand(frontT_, dt_, st_, ds_, touchedT_, ++rt, best);
        }
        if (best == kInf) return false;
        const std::uint32_t dist = best;

        // Crossing level: every shortest path has exactly one vertex at
        // s-distance L, and both sigma halves are settled there (L <= rs,
        // dist - L <= rt by the stop condition).
        const std::uint32_t lvl = std::min(rs, dist);
        double total = 0.0;
        for (node u : touchedS_)
            if (ds_[u] == lvl && dt_[u] == dist - lvl) total += ss_[u] * st_[u];
        if (total <= 0.0) return false; // defensive; cannot happen when best < inf

        double pick = rng.real01() * total;
        node meet = none;
        for (node u : touchedS_) {
            if (ds_[u] != lvl || dt_[u] != dist - lvl) continue;
            meet = u;
            pick -= ss_[u] * st_[u];
            if (pick <= 0.0) break;
        }

        if (meet != s && meet != t) cnt[meet] += 1.0;
        walk(meet, s, ds_, ss_, rng, cnt);
        walk(meet, t, dt_, st_, rng, cnt);
        return true;
    }

private:
    bool pickSide() const {
        if (frontS_.empty()) return false;
        if (frontT_.empty()) return true;
        count degS = 0, degT = 0;
        for (node u : frontS_) degS += v_.degree(u);
        for (node u : frontT_) degT += v_.degree(u);
        return degS <= degT;
    }

    /// Expands @p front one full level to radius @p r; vertices already
    /// settled by the other side update the best known s-t distance.
    void expand(std::vector<node>& front, std::vector<std::uint32_t>& d,
                std::vector<double>& sig, const std::vector<std::uint32_t>& dOther,
                std::vector<node>& touched, std::uint32_t r, std::uint32_t& best) {
        next_.clear();
        for (node x : front) {
            v_.forNeighborsOf(x, [&](node y) {
                if (d[y] == kInf) {
                    d[y] = r;
                    sig[y] = sig[x];
                    touched.push_back(y);
                    next_.push_back(y);
                    if (dOther[y] != kInf)
                        best = std::min(best, r + dOther[y]);
                } else if (d[y] == r) {
                    sig[y] += sig[x];
                }
            });
        }
        front.swap(next_);
    }

    /// Backward walk from @p from to @p target choosing predecessors
    /// proportionally to their path counts; credits interior vertices.
    void walk(node from, node target, const std::vector<std::uint32_t>& d,
              const std::vector<double>& sig, Rng& rng, double* cnt) {
        node w = from;
        while (w != target) {
            const std::uint32_t predLvl = d[w] - 1;
            double pick = rng.real01() * sig[w];
            node chosen = none;
            v_.forNeighborsOf(w, [&](node p) {
                if (pick <= 0.0 || d[p] != predLvl) return;
                chosen = p;
                pick -= sig[p];
            });
            if (chosen != target) cnt[chosen] += 1.0;
            w = chosen;
        }
    }

    void reset() {
        for (node u : touchedS_) {
            ds_[u] = kInf;
            ss_[u] = 0.0;
        }
        for (node u : touchedT_) {
            dt_[u] = kInf;
            st_[u] = 0.0;
        }
        touchedS_.clear();
        touchedT_.clear();
    }

    const CsrView& v_;
    std::vector<std::uint32_t> ds_, dt_;
    std::vector<double> ss_, st_;
    std::vector<node> touchedS_, touchedT_, frontS_, frontT_, next_;
};

} // namespace

KadabraBetweenness::KadabraBetweenness(const Graph& g, double epsilon, double delta,
                                       std::uint64_t seed)
    : CentralityAlgorithm(g), epsilon_(epsilon), delta_(delta), seed_(seed) {
    if (epsilon <= 0.0 || epsilon >= 1.0)
        throw std::invalid_argument("KadabraBetweenness: epsilon out of (0,1)");
    if (delta <= 0.0 || delta >= 1.0)
        throw std::invalid_argument("KadabraBetweenness: delta out of (0,1)");
}

void KadabraBetweenness::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    scores_.assign(n, 0.0);
    samples_ = 0;
    achievedEps_ = 0.0;
    if (n < 3) return;

    // Hard cap: the a-priori Riondato-Kornaropoulos sample size — the
    // adaptive rule normally stops long before it.
    const double vd =
        static_cast<double>(std::max<count>(diameterEstimate(g_, 4, seed_) + 1, 3));
    const count rkCap = static_cast<count>(std::ceil(
        (0.5 / (epsilon_ * epsilon_)) *
        (std::floor(std::log2(vd - 2.0)) + 1.0 + std::log(1.0 / delta_))));

    const double logTerm = std::log(3.0 * static_cast<double>(n) / delta_);
    double* cnt = scores_.data();

    count t = 0;
    double radius = 1.0;
    while (t < rkCap) {
        const count round = std::min(kRoundSize, rkCap - t);
#pragma omp parallel
        {
            BiSampler sampler(v);
            // Whole path counts: integer sums are exact in any order.
#pragma omp for schedule(dynamic, 16) reduction(+ : cnt[:n])
            for (long long i = 0; i < static_cast<long long>(round); ++i) {
                // Per-sample generator keyed by the global sample index, so
                // results do not depend on the thread count.
                Rng rng(seed_ + 0x9E3779B97F4A7C15ULL *
                                    (static_cast<std::uint64_t>(t) + i + 1));
                const node s = static_cast<node>(rng.pick(n));
                node tt = s;
                while (tt == s) tt = static_cast<node>(rng.pick(n));
                sampler.sample(s, tt, rng, cnt);
            }
        }
        t += round;

        // Empirical-Bernstein radius over all vertices, union bound n ways.
        double maxVar = 0.0;
        const double td = static_cast<double>(t);
        for (node u = 0; u < n; ++u) {
            const double p = cnt[u] / td;
            maxVar = std::max(maxVar, p * (1.0 - p));
        }
        radius = std::sqrt(2.0 * maxVar * logTerm / td) + 3.0 * logTerm / td;
        if (radius <= epsilon_) break;
    }

    samples_ = t;
    // At the RK cap the a-priori bound guarantees epsilon even when the
    // empirical radius has not closed.
    achievedEps_ = t >= rkCap ? std::min(radius, epsilon_) : radius;

    const double inv = 1.0 / static_cast<double>(samples_);
    for (auto& s : scores_) s *= inv;
}

} // namespace rinkit
