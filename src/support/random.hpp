#pragma once

#include <cstdint>
#include <cmath>
#include <vector>

#include "src/support/types.hpp"

namespace rinkit {

/// Fast, high-quality PRNG (xoshiro256**) with convenience samplers.
///
/// Deterministic given a seed and cheap to copy. Parallel kernels seed one
/// instance per work item (e.g. per sample index in KadabraBetweenness),
/// never per thread, so that results do not depend on the thread count. Used everywhere
/// randomness is needed so that experiments are reproducible end to end.
class Rng {
public:
    /// Seeds the generator via SplitMix64 expansion of @p seed.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    /// Re-seeds the generator deterministically from @p seed.
    void reseed(std::uint64_t seed);

    /// Next raw 64-bit value.
    std::uint64_t next();

    /// Uniform in [0, 1).
    double real01();

    /// Uniform in [lo, hi).
    double real(double lo, double hi) { return lo + (hi - lo) * real01(); }

    /// Uniform integer in [0, bound). @p bound must be > 0.
    std::uint64_t integer(std::uint64_t bound);

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t range(std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(integer(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /// Standard normal via Box-Muller (cached second variate).
    double normal();

    /// Normal with mean @p mu and standard deviation @p sigma.
    double normal(double mu, double sigma) { return mu + sigma * normal(); }

    /// Bernoulli trial with success probability @p p.
    bool chance(double p) { return real01() < p; }

    /// Random element index for a container of @p size elements.
    index pick(count size) { return static_cast<index>(integer(size)); }

    /// Fisher-Yates shuffle of a vector.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        if (v.empty()) return;
        for (count i = v.size() - 1; i > 0; --i) {
            std::swap(v[i], v[integer(i + 1)]);
        }
    }

private:
    std::uint64_t state_[4];
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

} // namespace rinkit
