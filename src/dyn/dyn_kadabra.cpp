#include "src/dyn/dyn_kadabra.hpp"

#include <algorithm>
#include <cmath>
#include <omp.h>
#include <stdexcept>

#include "src/components/csr_bfs.hpp"
#include "src/support/random.hpp"

namespace rinkit::dyn {

namespace {

constexpr std::uint64_t kGold = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kEpochMix = 0xD6E8FEB86659FD93ULL;
constexpr std::uint64_t kPathMix = 0x94D049BB133111EBULL;

/// A-priori Riondato-Kornaropoulos sample size — same formula as the
/// static KadabraBetweenness hard cap.
count rkSampleSize(double eps, double delta, count vertexDiameter) {
    const double vd = static_cast<double>(std::max<count>(vertexDiameter, 3));
    return static_cast<count>(
        std::ceil((0.5 / (eps * eps)) *
                  (std::floor(std::log2(vd - 2.0)) + 1.0 + std::log(1.0 / delta))));
}

std::uint16_t rowEccentricity(const std::uint16_t* row, count n) {
    std::uint16_t ecc = 0;
    for (count u = 0; u < n; ++u) {
        if (row[u] != kUnreachedLevel) ecc = std::max(ecc, row[u]);
    }
    return ecc;
}

} // namespace

void DynKadabra::drawPair(count i, node& s, node& t) const {
    // Keyed by the global sample index: pair i is the same regardless of
    // thread count, and extending the set (topUp) continues the sequence.
    Rng rng(seed_ + kGold * (static_cast<std::uint64_t>(i) + 1));
    s = static_cast<node>(rng.pick(n_));
    t = s;
    while (t == s) t = static_cast<node>(rng.pick(n_));
}

void DynKadabra::samplePath(const CsrView& v, Sample& smp, std::uint64_t salt,
                            GeoScratch& w, double* cnt) const {
    smp.interior.clear();
    const std::uint16_t* rs = row(smp.s);
    const std::uint16_t* rt = row(smp.t);
    const std::uint32_t dist = rs[smp.t];
    if (dist == kUnreachedLevel || dist < 2) return; // no interior vertices

    // Geodesic region off the oracle: x is on some shortest s-t path iff
    // d(s,x) + d(x,t) = d(s,t). One scan over the two rows.
    w.ensure(n_);
    if (++w.epoch == 0) {
        std::fill(w.stamp.begin(), w.stamp.end(), 0u);
        w.epoch = 1;
    }
    if (w.buckets.size() <= dist) w.buckets.resize(dist + 1);
    for (std::uint32_t d = 0; d <= dist; ++d) w.buckets[d].clear();
    for (node u = 0; u < n_; ++u) {
        const std::uint32_t du = rs[u], dt = rt[u];
        if (du == kUnreachedLevel || dt == kUnreachedLevel || du + dt != dist)
            continue;
        w.stamp[u] = w.epoch;
        w.sigma[u] = 0.0;
        w.buckets[du].push_back(u);
    }

    // Path counts restricted to the region, ascending d(s, .): the region
    // is closed under shortest-path predecessors, so these are the true
    // sigma_s values for every vertex on an s-t geodesic.
    w.sigma[smp.s] = 1.0;
    for (std::uint32_t d = 1; d <= dist; ++d) {
        for (node x : w.buckets[d]) {
            double sig = 0.0;
            v.forNeighborsOf(x, [&](node y) {
                if (w.stamp[y] == w.epoch && rs[y] + 1u == d) sig += w.sigma[y];
            });
            w.sigma[x] = sig;
        }
    }

    // Backward walk from t picking predecessors proportionally to their
    // path counts: a uniform shortest s-t path.
    Rng rng(salt);
    node x = smp.t;
    while (x != smp.s) {
        const std::uint32_t d = rs[x];
        double pick = rng.real01() * w.sigma[x];
        node chosen = none;
        v.forNeighborsOf(x, [&](node y) {
            if (pick <= 0.0 || w.stamp[y] != w.epoch || rs[y] + 1u != d) return;
            chosen = y;
            pick -= w.sigma[y];
        });
        if (chosen == none) break; // defensive; sigma > 0 on the region
        x = chosen;
        if (x == smp.s) break;
        smp.interior.push_back(x);
        if (cnt) cnt[x] += 1.0;
    }
}

void DynKadabra::refreshBound() {
    const count t = samples_.size();
    if (t == 0) {
        achievedEps_ = 0.0;
        return;
    }
    const double vd = static_cast<double>(std::max<count>(vertexDiameter_, 3));
    const double term =
        std::floor(std::log2(vd - 2.0)) + 1.0 + std::log(1.0 / delta_);
    achievedEps_ = std::sqrt(term / (2.0 * static_cast<double>(t)));
}

count DynKadabra::requiredSamples() const {
    return rkSampleSize(eps_, delta_, vertexDiameter_);
}

void DynKadabra::topUp(const CsrView& v, GeoScratch& w) {
    const count target = requiredSamples();
    while (samples_.size() < target) {
        const count i = samples_.size();
        Sample smp;
        drawPair(i, smp.s, smp.t);
        samplePath(v, smp,
                   (seed_ + kGold * (static_cast<std::uint64_t>(i) + 1)) ^ kPathMix,
                   w, cnt_.data());
        samples_.push_back(std::move(smp));
    }
}

void DynKadabra::init(const CsrView& v, double epsilon, double delta,
                      std::uint64_t seed) {
    if (epsilon <= 0.0 || epsilon >= 1.0)
        throw std::invalid_argument("DynKadabra: epsilon out of (0,1)");
    if (delta <= 0.0 || delta >= 1.0)
        throw std::invalid_argument("DynKadabra: delta out of (0,1)");
    n_ = v.numberOfNodes();
    version_ = v.version();
    eps_ = epsilon;
    delta_ = delta;
    seed_ = seed;
    epoch_ = 0;
    lastResampled_ = 0;
    vertexDiameter_ = 3;
    lvl_.assign(static_cast<size_t>(n_) * n_, kUnreachedLevel);
    ecc_.assign(n_, 0);
    cnt_.assign(n_, 0.0);
    samples_.clear();
    achievedEps_ = 0.0;
    primed_ = true;
    if (n_ < 3) return;

    const count n = n_;
#pragma omp parallel
    {
        CsrBfs bfs(v);
#pragma omp for schedule(dynamic, 16)
        for (long long si = 0; si < static_cast<long long>(n); ++si) {
            const node s = static_cast<node>(si);
            bfs.run(s);
            std::uint16_t* r = lvl_.data() + static_cast<size_t>(si) * n;
            std::uint16_t ecc = 0;
            for (node u = 0; u < n; ++u) {
                const std::uint32_t d = bfs.levelOf(u);
                if (d == CsrBfs::unreachedLevel) continue;
                r[u] = static_cast<std::uint16_t>(d);
                ecc = std::max(ecc, r[u]);
            }
            ecc_[si] = ecc;
        }
    }
    std::uint16_t maxEcc = 0;
    for (node s = 0; s < n; ++s) maxEcc = std::max(maxEcc, ecc_[s]);
    vertexDiameter_ = std::max<count>(static_cast<count>(maxEcc) + 1, 3);

    const count target = requiredSamples();
    samples_.resize(target);
    double* cnt = cnt_.data();
#pragma omp parallel
    {
        GeoScratch w;
        // Whole path counts: integer sums are exact in any order.
#pragma omp for schedule(dynamic, 16) reduction(+ : cnt[:n])
        for (long long i = 0; i < static_cast<long long>(target); ++i) {
            Sample& smp = samples_[static_cast<size_t>(i)];
            drawPair(static_cast<count>(i), smp.s, smp.t);
            samplePath(
                v, smp,
                (seed_ + kGold * (static_cast<std::uint64_t>(i) + 1)) ^ kPathMix, w,
                cnt);
        }
    }
    refreshBound();
}

void DynKadabra::update(const CsrView& v, const EdgeBatch& batch) {
    lastResampled_ = 0;
    version_ = v.version();
    if (n_ < 3 || batch.size() == 0) return;
    const count n = n_;
    const count S = samples_.size();

    // ---- Pre-repair pass (old rows): record old pair distances, and flag
    // samples whose removed batch edge sat on an old s-t geodesic.
    std::vector<std::uint16_t> oldDist(S);
    std::vector<std::uint8_t> flag(S, 0);
    const auto onGeodesicEdge = [this](node s, node t, std::uint32_t dist, node a,
                                       node b) {
        // Does edge (a, b), in either orientation, carry a shortest s-t
        // path? All lookups against the *current* matrix rows.
        const std::uint32_t sa = row(s)[a], sb = row(s)[b];
        const std::uint32_t ta = row(t)[a], tb = row(t)[b];
        if (sa != kUnreachedLevel && tb != kUnreachedLevel && sa + 1 + tb == dist)
            return true;
        return sb != kUnreachedLevel && ta != kUnreachedLevel && sb + 1 + ta == dist;
    };
    for (count i = 0; i < S; ++i) {
        const Sample& smp = samples_[i];
        const std::uint16_t od = row(smp.s)[smp.t];
        oldDist[i] = od;
        if (!batch.removed || od == kUnreachedLevel) continue;
        for (const auto& [a, b] : *batch.removed) {
            if (onGeodesicEdge(smp.s, smp.t, od, a, b)) {
                flag[i] = 1;
                break;
            }
        }
    }

    // ---- Repair every level row; rows with changes refresh their stored
    // eccentricity so the vertex-diameter estimate (and with it the sample
    // size the a-priori bound needs) tracks the graph.
    std::vector<std::vector<LevelChange>> changes(n);
#pragma omp parallel
    {
        LevelRepairer repairer;
#pragma omp for schedule(dynamic, 8)
        for (long long si = 0; si < static_cast<long long>(n); ++si) {
            std::uint16_t* r = lvl_.data() + static_cast<size_t>(si) * n;
            repairer.repair(v, static_cast<node>(si), r, batch,
                            changes[static_cast<size_t>(si)]);
            if (!changes[static_cast<size_t>(si)].empty())
                ecc_[static_cast<size_t>(si)] = rowEccentricity(r, n);
        }
    }
    std::uint16_t maxEcc = 0;
    for (node s = 0; s < n; ++s) maxEcc = std::max(maxEcc, ecc_[s]);
    vertexDiameter_ = std::max<count>(static_cast<count>(maxEcc) + 1, 3);

    // ---- Post-repair pass (new rows): a sample needs redrawing iff its
    // s-t shortest-path DAG moved — pair distance changed, an added edge
    // carries a new geodesic, or a level-changed vertex lies on an old or
    // new geodesic. All O(1) tests against the oracle.
    const auto oldLevelIn = [](const std::vector<LevelChange>& ch, node x,
                               std::uint16_t cur) {
        for (const LevelChange& c : ch) {
            if (c.v == x) return c.oldLevel;
        }
        return cur;
    };
    for (count i = 0; i < S; ++i) {
        if (flag[i]) continue;
        const Sample& smp = samples_[i];
        const std::uint32_t od = oldDist[i];
        const std::uint32_t nd = row(smp.s)[smp.t];
        if (nd != od) {
            flag[i] = 1;
            continue;
        }
        if (nd == kUnreachedLevel) continue; // still disconnected: no paths
        if (batch.added) {
            for (const auto& [a, b] : *batch.added) {
                if (onGeodesicEdge(smp.s, smp.t, nd, a, b)) {
                    flag[i] = 1;
                    break;
                }
            }
            if (flag[i]) continue;
        }
        const auto touchesPair = [&](const std::vector<LevelChange>& own,
                                     const std::vector<LevelChange>& other,
                                     node otherSrc) {
            for (const LevelChange& c : own) {
                const std::uint32_t oOwn = c.oldLevel, nOwn = c.newLevel;
                const std::uint32_t nOth = row(otherSrc)[c.v];
                const std::uint32_t oOth = oldLevelIn(other, c.v, row(otherSrc)[c.v]);
                if (oOwn != kUnreachedLevel && oOth != kUnreachedLevel &&
                    oOwn + oOth == od)
                    return true;
                if (nOwn != kUnreachedLevel && nOth != kUnreachedLevel &&
                    nOwn + nOth == nd)
                    return true;
            }
            return false;
        };
        if (touchesPair(changes[smp.s], changes[smp.t], smp.t) ||
            touchesPair(changes[smp.t], changes[smp.s], smp.s))
            flag[i] = 1;
    }

    // ---- Redraw only the flagged samples, straight off the repaired
    // rows: retract the old path's contributions, draw a fresh uniform
    // path with fresh (epoch-salted, index-keyed) randomness.
    double* cnt = cnt_.data();
    count resampled = 0;
#pragma omp parallel
    {
        GeoScratch w;
        // Whole path counts: integer sums are exact in any order.
#pragma omp for schedule(dynamic, 16) reduction(+ : cnt[:n]) reduction(+ : resampled)
        for (long long i = 0; i < static_cast<long long>(S); ++i) {
            if (!flag[static_cast<size_t>(i)]) continue;
            Sample& smp = samples_[static_cast<size_t>(i)];
            for (node u : smp.interior) cnt[u] -= 1.0;
            samplePath(v, smp,
                       (seed_ + kGold * (static_cast<std::uint64_t>(i) + 1)) ^
                           (kEpochMix * (static_cast<std::uint64_t>(epoch_) + 1)),
                       w, cnt);
            ++resampled;
        }
    }
    lastResampled_ = resampled;
    ++epoch_;

    // Diameter growth can raise the required sample size; extend the set
    // (continuing the deterministic pair sequence) so the stated bound
    // never silently loosens past epsilon.
    GeoScratch w;
    topUp(v, w);
    refreshBound();
}

std::vector<double> DynKadabra::scores() const {
    std::vector<double> out(n_, 0.0);
    const count t = samples_.size();
    if (t == 0) return out;
    const double inv = 1.0 / static_cast<double>(t);
    for (node u = 0; u < n_; ++u) out[u] = cnt_[u] * inv;
    return out;
}

void DynKadabra::reset() {
    primed_ = false;
    n_ = 0;
    version_ = 0;
    epoch_ = 0;
    lastResampled_ = 0;
    achievedEps_ = 0.0;
    lvl_.clear();
    lvl_.shrink_to_fit();
    ecc_.clear();
    samples_.clear();
    samples_.shrink_to_fit();
    cnt_.clear();
}

} // namespace rinkit::dyn
