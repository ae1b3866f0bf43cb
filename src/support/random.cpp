#include "src/support/random.hpp"

namespace rinkit {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

} // namespace

void Rng::reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
    hasCachedNormal_ = false;
}

std::uint64_t Rng::next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double Rng::real01() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::integer(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method: unbiased and branch-light.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        const std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    do {
        u1 = real01();
    } while (u1 <= 1e-300);
    const double u2 = real01();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

} // namespace rinkit
