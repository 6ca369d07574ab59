/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (workload inputs, mutation
 * choices, virtual-OS nondeterminism) flows through SplitMix64 so
 * experiments are reproducible from a single seed.
 */
#pragma once

#include <cstdint>
#include <limits>

namespace ldx {

/** SplitMix64 generator: tiny, fast, and good enough for workloads. */
class Prng
{
  public:
    explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state_(seed)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw with probability @p num / @p den. */
    bool
    chance(std::uint64_t num, std::uint64_t den)
    {
        return below(den) < num;
    }

    /**
     * Skip @p n draws in O(1): SplitMix64's state advances by a
     * fixed increment per draw, so the stream continues exactly as
     * if next() had been called @p n times.
     */
    void discard(std::uint64_t n) { state_ += n * 0x9e3779b97f4a7c15ULL; }

    /** Reseed in place. */
    void reseed(std::uint64_t seed) { state_ = seed; }

  private:
    std::uint64_t state_;
};

} // namespace ldx
