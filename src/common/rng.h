/**
 * @file
 * Deterministic random-number generation for workloads and the simulator.
 *
 * A xoshiro256** core keeps runs reproducible across platforms (unlike
 * std::default_random_engine) and is cheap enough to call per-request.
 * On top of it sit the distributions the evaluation needs: uniform ints,
 * the YCSB-style Zipfian key popularity distribution, and exponential
 * inter-arrival times for open-loop tests.
 */

#ifndef PMNET_COMMON_RNG_H
#define PMNET_COMMON_RNG_H

#include <cstdint>

namespace pmnet {

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies UniformRandomBitGenerator, so it can also be plugged into
 * <random> distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via splitmix64 so nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return UINT64_MAX; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextUInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t nextInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** True with probability @p p (clamped to [0,1]). */
    bool nextBool(double p);

    /** Fork an independent stream (for per-client generators). */
    Rng split();

  private:
    std::uint64_t s[4];
};

/**
 * Zipfian distribution over [0, n), per Gray et al. / the YCSB
 * implementation. theta defaults to the YCSB standard 0.99.
 *
 * Item 0 is the most popular. Used for key popularity in the KV and
 * caching experiments (Fig 19 and Fig 20).
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw one item index in [0, n). */
    std::uint64_t next(Rng &rng);

    std::uint64_t itemCount() const { return n_; }
    double theta() const { return theta_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;

    /** Sum of 1 / i^theta over [1, n]; memoized per (n, theta). */
    static double zeta(std::uint64_t n, double theta);
};

/**
 * Exponential inter-arrival generator for open-loop load (stress test,
 * Fig 16). Mean is expressed directly in simulated nanoseconds.
 */
class ExponentialGenerator
{
  public:
    explicit ExponentialGenerator(double mean_ns);

    /** Draw one inter-arrival gap in nanoseconds (>= 1). */
    std::int64_t next(Rng &rng);

  private:
    double mean_;
};

} // namespace pmnet

#endif // PMNET_COMMON_RNG_H
