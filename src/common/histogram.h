/**
 * @file
 * Log-bucketed streaming histogram (HdrHistogram-style).
 *
 * Every latency the harness reports (testbed runs, figure benches,
 * pmnet_sim) is recorded here. Large sweeps record millions of
 * samples per run, too many to store and re-sort per percentile
 * query, so Histogram keeps O(1)-time add with a fixed ~57 KB
 * footprint and answers percentile queries in one pass over the
 * buckets, at a bounded relative error.
 *
 * Bucket layout: values below 256 get one bucket each (exact); every
 * higher power-of-two octave [2^m, 2^(m+1)) is split into 128
 * equal-width sub-buckets. A bucket therefore spans at most 1/128 of
 * its lower bound, and reporting the bucket midpoint bounds the
 * relative quantile error by 1/256 (< 0.4%, comfortably inside the
 * 1% target). count/sum/min/max are tracked exactly, and an
 * order-sensitive digest of the added values lets determinism checks
 * compare two runs sample by sample without storing the samples.
 */

#ifndef PMNET_COMMON_HISTOGRAM_H
#define PMNET_COMMON_HISTOGRAM_H

#include <cstdint>
#include <utility>
#include <vector>

namespace pmnet {

/** Fixed-error streaming histogram over non-negative int64 values. */
class Histogram
{
  public:
    /** Worst-case relative error of any reported quantile value. */
    static constexpr double kMaxRelativeError = 1.0 / 256.0;

    /** Record one value (negatives are clamped to 0). O(1). */
    void add(std::int64_t value);

    /**
     * Fold @p other's population into this histogram. The digest
     * absorbs @p other's digest, so merging the same histograms in
     * the same order always gives the same digest.
     */
    void merge(const Histogram &other);

    /** Drop all recorded values and reset the digest (keeps bucket
     *  storage). */
    void clear();

    std::uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Exact arithmetic mean. @pre not empty. */
    double mean() const;

    /** Exact extrema. @pre not empty. */
    std::int64_t min() const;
    std::int64_t max() const;

    /**
     * Nearest-rank percentile (0 <= p <= 100), accurate to
     * kMaxRelativeError. @pre not empty.
     */
    std::int64_t percentile(double p) const;

    /**
     * Evenly spaced CDF points: @p points pairs of
     * (value, cumulative_fraction), each the nearest-rank value at
     * that fraction.
     */
    std::vector<std::pair<std::int64_t, double>> cdf(std::size_t points) const;

    /**
     * Order-sensitive hash of every value added (and every histogram
     * merged) since construction or the last clear(): equal sequences
     * give equal digests, and reordering them almost surely changes
     * it. Bucket counts cannot tell two runs apart that differ only
     * in which request saw which latency; the digest can.
     */
    std::uint64_t digest() const { return digest_; }

  private:
    // 256 exact buckets + 128 sub-buckets for each octave 2^8..2^62.
    static constexpr int kSubBits = 7; // 128 sub-buckets per octave
    static constexpr std::size_t kLinear = 256;
    static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
    static constexpr std::size_t kBuckets =
        kLinear + (62 - 8 + 1) * kSubBuckets;

    /** Non-zero, so leading zero values still move the digest. */
    static constexpr std::uint64_t kDigestSeed = 0xCBF29CE484222325ull;

    static std::size_t bucketOf(std::uint64_t value);
    static std::int64_t bucketMid(std::size_t index);

    /** Value whose rank (1-based) is @p rank. @pre 1 <= rank <= count. */
    std::int64_t valueAtRank(std::uint64_t rank) const;

    std::vector<std::uint64_t> counts_; ///< lazily sized to kBuckets
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
    std::uint64_t digest_ = kDigestSeed;
};

} // namespace pmnet

#endif // PMNET_COMMON_HISTOGRAM_H
