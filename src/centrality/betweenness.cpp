#include "src/centrality/betweenness.hpp"

#include <cstdint>
#include <vector>

#include "src/support/parallel.hpp"

namespace rinkit {

namespace {

/// Read-only CSR copy whose rows are padded with self-arcs to a multiple of
/// four, shared by every worker thread. Padding makes the hot row scans
/// remainder-free (a fixed 4-wide step with no trip-count tail), and a
/// self-arc is provably inert in Brandes: its target is the row's own node,
/// which is never unseen during the row's discovery scan, holds sigma 0.0
/// while its own pull runs, and holds coeff 0.0 while its own accumulation
/// runs (see the zero-read invariant below) — so padded slots contribute
/// exactly +0.0 everywhere.
struct PaddedCsr {
    std::vector<std::uint32_t> off;
    std::vector<node> tgt;
    count n = 0;

    explicit PaddedCsr(const CsrView& v) : n(v.numberOfNodes()) {
        const count* o = v.offsets();
        const node* t = v.targets();
        off.resize(n + 1);
        count total = 0;
        for (node u = 0; u < n; ++u) {
            off[u] = static_cast<std::uint32_t>(total);
            total += (o[u + 1] - o[u] + 3) & ~count(3);
        }
        off[n] = static_cast<std::uint32_t>(total);
        tgt.resize(total);
        for (node u = 0; u < n; ++u) {
            count p = off[u];
            for (count a = o[u]; a < o[u + 1]; ++a) tgt[p++] = t[a];
            while (p < off[u + 1]) tgt[p++] = u;
        }
    }
};

/// Per-thread Brandes worker over the shared padded CSR.
///
/// The central trick is a *zero-read* invariant that deletes the per-arc
/// level test from both hot loops. sigma and coeff start (and are reset to)
/// all-zero, and each BFS level is handled in two sub-passes: pass one
/// computes every value of the level into a sequential scratch buffer, pass
/// two publishes them to the node-indexed array. While a level is being
/// scanned, same-level entries are therefore still 0.0, deeper entries are
/// 0.0 (BFS) or finalized (accumulation), and shallower entries are
/// finalized (BFS) or 0.0 (accumulation) — in every case a neighbor that
/// must not contribute reads as exactly +0.0, so the inner loops are plain
/// gather-adds with no compare/mask per arc.
///
/// Branchless selects the discovery style: sparse rows leave the "is this
/// neighbor unseen" branch unpredictable (~12% taken on 4.5 A RINs), where
/// an unconditional seen-store plus branchless frontier append wins; on
/// dense rows the branch is rarely taken and predicts well, and the extra
/// stores are pure cost.
template <bool Branchless>
class BrandesWorker {
public:
    explicit BrandesWorker(const PaddedCsr& csr)
        : c_(csr), seen_(csr.n, 0), sigma_(csr.n, 0.0), coeff_(csr.n, 0.0),
          tmp_(csr.n),
          // One slot of headroom: the branchless append always stores at
          // ord_[tail] and only then advances, so with every node already
          // discovered it writes (harmlessly) at index n.
          ord_(csr.n + 1) {
        lvlEnd_.reserve(64);
    }

    /// Adds source s's pair dependencies into sc (Brandes, each unordered
    /// pair counted once per direction; the caller halves at the end).
    void source(node s, double* sc) {
        const std::uint32_t* off = c_.off.data();
        const node* tgt = c_.tgt.data();
        std::uint8_t* seen = seen_.data();
        double* sg = sigma_.data();
        double* cf = coeff_.data();
        double* tp = tmp_.data();
        node* ord = ord_.data();

        // Reset exactly the previous run's footprint (every touched node is
        // in ord_; neighbors of reached nodes are reached).
        for (count k = 0; k < tail_; ++k) {
            const node u = ord[k];
            seen[u] = 0;
            sg[u] = 0.0;
            cf[u] = 0.0;
        }
        lvlEnd_.clear();

        seen[s] = 1;
        sg[s] = 1.0;
        ord[0] = s;
        count tail = 1;
        lvlEnd_.push_back(1);
        // Source row is discovery-only: there is no shallower level to pull
        // path counts from, and sigma[s] is pinned to 1.
        for (std::uint32_t a = off[s]; a < off[s + 1]; ++a) {
            const node w = tgt[a];
            if (!seen[w]) {
                seen[w] = 1;
                ord[tail++] = w;
            }
        }
        tail_ = tail;
        if (tail == 1) return; // isolated source
        lvlEnd_.push_back(tail);

        count head = 1;
        while (head < tail) {
            const count levelEnd = tail;
            // Pass 1: discovery plus sigma pull into scratch. Predecessors
            // (one level up) are published, everything else reads 0.0.
            for (count i = head; i < levelEnd; ++i) {
                const node u = ord[i];
                double su0 = 0.0, su1 = 0.0, su2 = 0.0, su3 = 0.0;
                const std::uint32_t rowEnd = off[u + 1];
                for (std::uint32_t a = off[u]; a < rowEnd; a += 4) {
                    const node w0 = tgt[a], w1 = tgt[a + 1];
                    const node w2 = tgt[a + 2], w3 = tgt[a + 3];
                    if constexpr (Branchless) {
                        const std::uint8_t s0 = seen[w0];
                        seen[w0] = 1;
                        ord[tail] = w0;
                        tail += s0 ^ 1;
                        const std::uint8_t s1 = seen[w1];
                        seen[w1] = 1;
                        ord[tail] = w1;
                        tail += s1 ^ 1;
                        const std::uint8_t s2 = seen[w2];
                        seen[w2] = 1;
                        ord[tail] = w2;
                        tail += s2 ^ 1;
                        const std::uint8_t s3 = seen[w3];
                        seen[w3] = 1;
                        ord[tail] = w3;
                        tail += s3 ^ 1;
                    } else {
                        if (!seen[w0]) {
                            seen[w0] = 1;
                            ord[tail++] = w0;
                        }
                        if (!seen[w1]) {
                            seen[w1] = 1;
                            ord[tail++] = w1;
                        }
                        if (!seen[w2]) {
                            seen[w2] = 1;
                            ord[tail++] = w2;
                        }
                        if (!seen[w3]) {
                            seen[w3] = 1;
                            ord[tail++] = w3;
                        }
                    }
                    su0 += sg[w0];
                    su1 += sg[w1];
                    su2 += sg[w2];
                    su3 += sg[w3];
                }
                tp[i] = (su0 + su1) + (su2 + su3);
            }
            // Pass 2: publish this level's path counts.
            for (count i = head; i < levelEnd; ++i) sg[ord[i]] = tp[i];
            lvlEnd_.push_back(tail);
            head = levelEnd;
        }
        lvlEnd_.pop_back(); // the final frontier discovered nothing
        tail_ = tail;

        // Dependency accumulation, deepest level first. Nodes on the deepest
        // level have no successors, so only their coefficient is needed.
        const count deepest = lvlEnd_.size() - 1;
        for (count i = lvlEnd_[deepest - 1]; i < lvlEnd_[deepest]; ++i) {
            const node w = ord[i];
            cf[w] = 1.0 / sg[w];
        }
        for (count lvl = deepest - 1; lvl >= 1; --lvl) {
            const count b = lvlEnd_[lvl - 1], e = lvlEnd_[lvl];
            // Pass 1: successors (one level down) are finalized, same or
            // shallower levels read coeff 0.0 — again no level test.
            for (count i = b; i < e; ++i) {
                const node w = ord[i];
                double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                const std::uint32_t rowEnd = off[w + 1];
                for (std::uint32_t a = off[w]; a < rowEnd; a += 4) {
                    a0 += cf[tgt[a]];
                    a1 += cf[tgt[a + 1]];
                    a2 += cf[tgt[a + 2]];
                    a3 += cf[tgt[a + 3]];
                }
                const double delta = sg[w] * ((a0 + a1) + (a2 + a3));
                tp[i] = delta;
                sc[w] += delta;
            }
            // Pass 2: publish this level's coefficients.
            for (count i = b; i < e; ++i) {
                const node w = ord[i];
                cf[w] = (1.0 + tp[i]) / sg[w];
            }
        }
    }

private:
    const PaddedCsr& c_;
    std::vector<std::uint8_t> seen_;
    std::vector<double> sigma_, coeff_, tmp_;
    std::vector<node> ord_;
    std::vector<count> lvlEnd_;
    count tail_ = 0;
};

template <bool Branchless>
void accumulateAllSources(const PaddedCsr& csr, double* sc) {
    orderedAccumulate(
        csr.n, csr.n, sc, [&] { return BrandesWorker<Branchless>(csr); },
        [](BrandesWorker<Branchless>& worker, index s, double* acc) {
            worker.source(static_cast<node>(s), acc);
        });
}

} // namespace

void Betweenness::runImpl(const CsrView& v) {
    const count n = v.numberOfNodes();
    scores_.assign(n, 0.0);
    if (n == 0) {
        return;
    }

    const PaddedCsr csr(v);
    // Unpadded average degree decides the discovery style (see
    // BrandesWorker): low-cutoff RINs sit well below the crossover, dense
    // high-cutoff ones well above.
    const double avgDeg =
        static_cast<double>(v.offsets()[n]) / static_cast<double>(n);
    if (avgDeg < 12.0) {
        accumulateAllSources<true>(csr, scores_.data());
    } else {
        accumulateAllSources<false>(csr, scores_.data());
    }

    // Each unordered pair {s, t} was counted twice (once per direction).
    for (auto& s : scores_) s /= 2.0;

    if (normalized_ && n > 2) {
        const double norm = 2.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2));
        for (auto& s : scores_) s *= norm;
    }
}

} // namespace rinkit
