#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace pmnet {

namespace {

/** One FxHash step: fold @p word into @p digest, order-sensitively. */
std::uint64_t
foldDigest(std::uint64_t digest, std::uint64_t word)
{
    return (std::rotl(digest, 5) ^ word) * 0x9E3779B97F4A7C15ull;
}

} // namespace

std::size_t
Histogram::bucketOf(std::uint64_t value)
{
    if (value < kLinear)
        return static_cast<std::size_t>(value);
    int msb = std::bit_width(value) - 1; // >= 8
    std::size_t sub =
        static_cast<std::size_t>(value >> (msb - kSubBits)) &
        (kSubBuckets - 1);
    return kLinear + static_cast<std::size_t>(msb - 8) * kSubBuckets + sub;
}

std::int64_t
Histogram::bucketMid(std::size_t index)
{
    if (index < kLinear)
        return static_cast<std::int64_t>(index); // exact bucket
    std::size_t rel = index - kLinear;
    int msb = static_cast<int>(rel / kSubBuckets) + 8;
    std::uint64_t sub = rel % kSubBuckets;
    std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
    std::uint64_t low = (std::uint64_t{1} << msb) + sub * width;
    return static_cast<std::int64_t>(low + width / 2);
}

void
Histogram::add(std::int64_t value)
{
    if (value < 0)
        value = 0;
    if (counts_.empty())
        counts_.resize(kBuckets, 0);
    counts_[bucketOf(static_cast<std::uint64_t>(value))]++;
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    count_++;
    sum_ += static_cast<double>(value);
    digest_ = foldDigest(digest_, static_cast<std::uint64_t>(value));
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    if (counts_.empty())
        counts_.resize(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; i++)
        counts_[i] += other.counts_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    digest_ = foldDigest(digest_, other.digest_);
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0;
    max_ = 0;
    digest_ = kDigestSeed;
}

double
Histogram::mean() const
{
    if (count_ == 0)
        panic("Histogram::mean on empty histogram");
    return sum_ / static_cast<double>(count_);
}

std::int64_t
Histogram::min() const
{
    if (count_ == 0)
        panic("Histogram::min on empty histogram");
    return min_;
}

std::int64_t
Histogram::max() const
{
    if (count_ == 0)
        panic("Histogram::max on empty histogram");
    return max_;
}

std::int64_t
Histogram::valueAtRank(std::uint64_t rank) const
{
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); i++) {
        cum += counts_[i];
        if (cum >= rank) {
            // Clamp to the exact extrema so p0/p100 stay exact and no
            // bucket midpoint escapes the observed range.
            return std::clamp(bucketMid(i), min_, max_);
        }
    }
    return max_;
}

std::int64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        panic("Histogram::percentile on empty histogram");
    if (p < 0.0 || p > 100.0)
        panic("Histogram::percentile: p=%f out of range", p);
    // Nearest-rank: the smallest value with at least p% of the
    // population at or below it.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    if (rank > count_)
        rank = count_;
    return valueAtRank(rank);
}

std::vector<std::pair<std::int64_t, double>>
Histogram::cdf(std::size_t points) const
{
    std::vector<std::pair<std::int64_t, double>> out;
    if (count_ == 0 || points == 0)
        return out;
    out.reserve(points);
    // One pass over the buckets serves every point: target ranks are
    // monotonically increasing in i.
    std::uint64_t cum = 0;
    std::size_t bucket = 0;
    for (std::size_t i = 1; i <= points; i++) {
        double frac = static_cast<double>(i) / static_cast<double>(points);
        std::uint64_t rank = static_cast<std::uint64_t>(
            std::ceil(frac * static_cast<double>(count_)));
        if (rank == 0)
            rank = 1;
        if (rank > count_)
            rank = count_;
        while (bucket < counts_.size() && cum + counts_[bucket] < rank)
            cum += counts_[bucket++];
        std::int64_t value =
            bucket < counts_.size() ? bucketMid(bucket) : max_;
        out.emplace_back(std::clamp(value, min_, max_), frac);
    }
    return out;
}

} // namespace pmnet
