/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in SGMS (synthetic trace generation, page
 * placement) flows through Rng so that every experiment is exactly
 * reproducible from its seed. The generator is xoshiro256**, seeded
 * through SplitMix64 as its authors recommend.
 */

#ifndef SGMS_COMMON_RANDOM_H
#define SGMS_COMMON_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace sgms
{

/** Deterministic xoshiro256** PRNG. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (any value, including 0, is fine). */
    explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { reseed(seed); }

    /** Re-initialize the state from a seed. */
    void
    reseed(uint64_t seed)
    {
        // SplitMix64 expansion of the seed into the 256-bit state.
        uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t *s = state_;
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        SGMS_ASSERT(bound != 0);
        // Lemire's unbiased bounded generation.
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t l = static_cast<uint64_t>(m);
        if (l < bound) {
            uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        SGMS_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Approximately Zipf-distributed rank in [0, n), skew @p s.
     * Uses the inverse-CDF power-law approximation, which is accurate
     * enough for locality modelling and O(1) per draw.
     */
    uint64_t
    zipf(uint64_t n, double s = 0.8);

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

/**
 * Precomputed inverse-CDF table for fast Zipf sampling.
 *
 * Rng::zipf costs two std::pow calls per draw, which dominates trace
 * generation (one or more draws per reference). ZipfTable samples the
 * same distribution through a quantile lookup table, trading a little
 * tail resolution for a ~20x faster draw.
 */
class ZipfTable
{
  public:
    ZipfTable() = default;

    /** Build the table for ranks [0, n) with skew @p s. */
    ZipfTable(uint64_t n, double s);

    /** Draw a rank using @p rng for randomness. */
    uint64_t
    sample(Rng &rng) const
    {
        SGMS_ASSERT(!table_.empty());
        // Uniform index into the quantile table; linear within it.
        uint64_t r = rng.next();
        size_t idx = (r >> 52) & (TABLE_SIZE - 1); // top 12 bits
        return table_[idx];
    }

    /**
     * A copy whose every cell holds @p f of its rank: sample() then
     * returns f(rank) for the same draw, at the cost of one table
     * read, so a per-draw function of the rank is paid once per cell.
     */
    template <typename F>
    ZipfTable
    mapped(F f) const
    {
        ZipfTable out = *this;
        for (uint64_t &cell : out.table_)
            cell = f(cell);
        return out;
    }

    uint64_t n() const { return n_; }
    double skew() const { return skew_; }
    bool valid() const { return !table_.empty(); }

  private:
    static constexpr size_t TABLE_SIZE = 4096;

    uint64_t n_ = 0;
    double skew_ = 0.0;
    std::vector<uint64_t> table_;
};

} // namespace sgms

#endif // SGMS_COMMON_RANDOM_H
