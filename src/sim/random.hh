/**
 * @file
 * Deterministic random-number utilities for workload generation.
 *
 * Every stochastic component takes an explicit Rng so experiments are
 * reproducible from a single seed. Includes the Zipfian generator used
 * by the YCSB workload model.
 */

#ifndef BMS_SIM_RANDOM_HH
#define BMS_SIM_RANDOM_HH

#include "sim/check.hh"
#include <cmath>
#include <cstdint>
#include <random>

namespace bms::sim {

/** Thin deterministic wrapper over a 64-bit Mersenne twister. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed'b4e7'a11eULL)
        : _gen(seed)
    {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        BMS_ASSERT_LE(lo, hi, "empty uniformInt range");
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(_gen);
    }

    /** Uniform double in [0, 1). */
    double uniform01() { return _unit(_gen); }

    /** Uniform double in [lo, hi). */
    double
    uniformDouble(double lo, double hi)
    {
        return lo + (hi - lo) * uniform01();
    }

    /** Bernoulli trial with probability @p p of true. */
    bool chance(double p) { return uniform01() < p; }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        BMS_ASSERT(mean > 0.0, "exponential mean must be positive");
        double u = uniform01();
        // Guard against log(0).
        if (u <= 0.0)
            u = 1e-12;
        return -mean * std::log(u);
    }

    /** Fork an independent stream (e.g., one per tenant). */
    Rng
    fork()
    {
        return Rng(_gen() ^ 0x9e3779b97f4a7c15ULL);
    }

  private:
    std::mt19937_64 _gen;
    std::uniform_real_distribution<double> _unit{0.0, 1.0};
};

/**
 * Zipfian distribution over [0, n) using the rejection-inversion
 * method (Hörmann), as used by YCSB's ZipfianGenerator. Constant time
 * per sample, no O(n) setup.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n number of items (>= 1)
     * @param theta skew; YCSB default is 0.99. Must be in (0, 1).
     */
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw one item index in [0, n). Item 0 is the hottest. */
    std::uint64_t next(Rng &rng) const;

  private:
    double hIntegral(double x) const;
    double hIntegralInverse(double x) const;
    double h(double x) const;

    std::uint64_t _n;
    double _theta;
    double _hIntegralX1;
    double _hIntegralNumItems;
    double _s;
};

} // namespace bms::sim

#endif // BMS_SIM_RANDOM_HH
