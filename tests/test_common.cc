/**
 * @file
 * Unit tests for src/common: time helpers, RNG + distributions,
 * CRC-32, byte serialization and the statistics collectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace pmnet {
namespace {

// --------------------------------------------------------------- time

TEST(Time, ConstructionHelpers)
{
    EXPECT_EQ(nanoseconds(42), 42);
    EXPECT_EQ(microseconds(1.5), 1500);
    EXPECT_EQ(milliseconds(2.0), 2'000'000);
    EXPECT_EQ(seconds(1.0), 1'000'000'000);
}

TEST(Time, Conversions)
{
    EXPECT_DOUBLE_EQ(toMicroseconds(1500), 1.5);
    EXPECT_DOUBLE_EQ(toMilliseconds(2'000'000), 2.0);
    EXPECT_DOUBLE_EQ(toSeconds(500'000'000), 0.5);
}

TEST(Time, SerializationDelay)
{
    // 1250 bytes at 10 Gbps = 1 us.
    EXPECT_EQ(serializationDelay(1250, 10.0), 1000);
    // 100 Gbps is 10x faster.
    EXPECT_EQ(serializationDelay(1250, 100.0), 100);
    EXPECT_EQ(serializationDelay(0, 10.0), 0);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += (a() == b());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextUIntInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.nextUInt(17), 17u);
}

TEST(Rng, NextIntCoversRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        std::int64_t v = rng.nextInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; i++)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng a(17);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += (a() == b());
    EXPECT_LT(same, 4);
}

TEST(Zipfian, InBounds)
{
    Rng rng(3);
    ZipfianGenerator zipf(1000);
    for (int i = 0; i < 5000; i++)
        EXPECT_LT(zipf.next(rng), 1000u);
}

TEST(Zipfian, SkewFavorsLowItems)
{
    Rng rng(5);
    ZipfianGenerator zipf(10000, 0.99);
    std::map<std::uint64_t, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        counts[zipf.next(rng)]++;
    // Item 0 should be far more popular than a mid-range item.
    EXPECT_GT(counts[0], 20 * (counts[5000] + 1));
    // The hottest 100 items should hold a large share of draws.
    int hot = 0;
    for (std::uint64_t i = 0; i < 100; i++)
        hot += counts[i];
    EXPECT_GT(hot, n / 3);
}

TEST(Zipfian, UniformWhenThetaZero)
{
    Rng rng(19);
    ZipfianGenerator zipf(100, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; i++)
        counts[zipf.next(rng)]++;
    for (std::uint64_t i = 0; i < 100; i += 13)
        EXPECT_NEAR(counts[i], 1000, 250);
}

TEST(Zipfian, ConcurrentFirstUseAgrees)
{
    // zeta(n, theta) is memoized process-wide, and runSweep builds
    // testbeds on worker threads. Generators built at once on several
    // threads for a fresh (n, theta), and one built after them, must
    // draw the same stream.
    auto draws = [] {
        ZipfianGenerator zipf(54321, 0.77);
        Rng rng(11);
        std::vector<std::uint64_t> out;
        for (int i = 0; i < 64; i++)
            out.push_back(zipf.next(rng));
        return out;
    };
    std::vector<std::vector<std::uint64_t>> got(4);
    std::vector<std::thread> threads;
    for (auto &slot : got)
        threads.emplace_back([&slot, &draws] { slot = draws(); });
    for (std::thread &thread : threads)
        thread.join();
    std::vector<std::uint64_t> after = draws();
    for (const auto &stream : got)
        EXPECT_EQ(stream, after);
}

TEST(Exponential, MeanApproximation)
{
    Rng rng(23);
    ExponentialGenerator gen(5000.0);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(gen.next(rng));
    EXPECT_NEAR(sum / n, 5000.0, 200.0);
}

TEST(Exponential, AlwaysPositive)
{
    Rng rng(29);
    ExponentialGenerator gen(2.0);
    for (int i = 0; i < 1000; i++)
        EXPECT_GE(gen.next(rng), 1);
}

// -------------------------------------------------------------- crc32

TEST(Crc32, KnownVector)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero)
{
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const char *data = "hello, pmnet world";
    std::uint32_t whole = crc32(data, 18);
    std::uint32_t partial = crc32Update(0, data, 7);
    partial = crc32Update(partial, data + 7, 11);
    EXPECT_EQ(whole, partial);
}

TEST(Crc32, SensitiveToSingleBit)
{
    std::uint8_t a[4] = {1, 2, 3, 4};
    std::uint8_t b[4] = {1, 2, 3, 5};
    EXPECT_NE(crc32(a, 4), crc32(b, 4));
}

TEST(Crc32, ReferenceMatchesGoldenVectors)
{
    EXPECT_EQ(crc32Reference(0, "123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32Reference(0, "", 0), 0u);
}

TEST(Crc32, SliceBy8MatchesBitwiseReference)
{
    // Randomized cross-check of the table fast path against the
    // bit-at-a-time definition: varied lengths (covering the 8-byte
    // fold boundary cases), varied start offsets (unaligned loads),
    // varied running CRC values.
    Rng rng(0xC3C3);
    Bytes data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.nextUInt(256));

    for (int i = 0; i < 10000; i++) {
        std::size_t offset = rng.nextUInt(64);
        std::size_t len = rng.nextUInt(data.size() - offset);
        std::uint32_t init =
            (i % 3 == 0) ? 0 : static_cast<std::uint32_t>(rng());
        ASSERT_EQ(crc32Update(init, data.data() + offset, len),
                  crc32Reference(init, data.data() + offset, len))
            << "offset=" << offset << " len=" << len << " init=" << init;
    }
}

TEST(Crc32, IncrementalSplitsMatchOneShot)
{
    Rng rng(0x51AB);
    Bytes data(1024);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::uint32_t whole = crc32(data.data(), data.size());
    for (int i = 0; i < 200; i++) {
        std::size_t cut = rng.nextUInt(data.size() + 1);
        std::uint32_t partial = crc32Update(0, data.data(), cut);
        partial = crc32Update(partial, data.data() + cut,
                              data.size() - cut);
        ASSERT_EQ(partial, whole) << "cut=" << cut;
    }
}

// -------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars)
{
    Bytes buf;
    ByteWriter writer(buf);
    writer.writeU8(0xAB);
    writer.writeU16(0xBEEF);
    writer.writeU32(0xDEADBEEF);
    writer.writeU64(0x0123456789ABCDEFull);
    writer.writeString("pmnet");

    ByteReader reader(buf);
    EXPECT_EQ(reader.readU8(), 0xAB);
    EXPECT_EQ(reader.readU16(), 0xBEEF);
    EXPECT_EQ(reader.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.readU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(reader.readString(), "pmnet");
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Bytes, TruncatedReadSetsNotOk)
{
    Bytes buf;
    ByteWriter writer(buf);
    writer.writeU16(7);

    ByteReader reader(buf);
    reader.readU32();
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.remaining(), 0u);
    // Once not-ok, everything reads as zero.
    EXPECT_EQ(reader.readU8(), 0);
}

TEST(Bytes, TruncatedStringSetsNotOk)
{
    Bytes buf;
    ByteWriter writer(buf);
    writer.writeU32(100); // claims 100 bytes, none present

    ByteReader reader(buf);
    EXPECT_EQ(reader.readString(), "");
    EXPECT_FALSE(reader.ok());
}

TEST(Bytes, ReadBytesExact)
{
    Bytes buf = {1, 2, 3, 4, 5};
    ByteReader reader(buf);
    Bytes head = reader.readBytes(2);
    EXPECT_EQ(head, (Bytes{1, 2}));
    EXPECT_EQ(reader.remaining(), 3u);
    Bytes rest = reader.readBytes(reader.remaining());
    EXPECT_EQ(rest, (Bytes{3, 4, 5}));
    EXPECT_TRUE(reader.ok());
}

// -------------------------------------------------------------- stats
//
// The LatencySeries suite name is kept for the tests that covered the
// raw-sample latency series; they now exercise the Histogram that
// replaced it.

TEST(LatencySeries, MeanAndPercentiles)
{
    // Values below 256 land in width-1 buckets, so every statistic is
    // exact.
    Histogram series;
    for (int i = 1; i <= 100; i++)
        series.add(i + 100);
    EXPECT_DOUBLE_EQ(series.mean(), 150.5);
    EXPECT_EQ(series.percentile(50), 150);
    EXPECT_EQ(series.percentile(99), 199);
    EXPECT_EQ(series.percentile(100), 200);
    EXPECT_EQ(series.min(), 101);
    EXPECT_EQ(series.max(), 200);
}

TEST(LatencySeries, PercentileUnaffectedByInsertOrder)
{
    Histogram a, b;
    for (int i = 1; i <= 50; i++)
        a.add(i);
    for (int i = 50; i >= 1; i--)
        b.add(i);
    EXPECT_EQ(a.percentile(90), b.percentile(90));
    EXPECT_EQ(a.percentile(10), b.percentile(10));
}

TEST(LatencySeries, CdfMonotonic)
{
    Histogram series;
    Rng rng(31);
    for (int i = 0; i < 1000; i++)
        series.add(static_cast<TickDelta>(rng.nextUInt(100000)));
    auto cdf = series.cdf(20);
    ASSERT_EQ(cdf.size(), 20u);
    for (std::size_t i = 1; i < cdf.size(); i++) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GT(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LatencySeries, ClearResets)
{
    Histogram series;
    series.add(5);
    series.clear();
    EXPECT_TRUE(series.empty());
}

// ---------------------------------------------------------- histogram

/** Nearest-rank index (0-based) of fraction @p frac among @p n sorted
 *  samples: the reference the histogram's quantiles are held to. */
std::size_t
nearestRankIndex(double frac, std::size_t n)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(frac * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/** Exact vs streaming percentile agreement on one sample set. */
void
expectStreamingClose(std::vector<TickDelta> samples, const char *label)
{
    Histogram streaming;
    double sum = 0.0;
    for (TickDelta s : samples) {
        streaming.add(s);
        sum += static_cast<double>(s);
    }
    std::sort(samples.begin(), samples.end());
    double mean = sum / static_cast<double>(samples.size());
    ASSERT_EQ(streaming.count(), samples.size());
    EXPECT_EQ(streaming.min(), samples.front()) << label;
    EXPECT_EQ(streaming.max(), samples.back()) << label;
    EXPECT_NEAR(streaming.mean(), mean, 1e-6 * std::abs(mean) + 1e-9)
        << label;
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        double want = static_cast<double>(
            samples[nearestRankIndex(p / 100.0, samples.size())]);
        double got = static_cast<double>(streaming.percentile(p));
        // The issue's accuracy bound is 1%; the histogram's design
        // bound is 1/256.
        EXPECT_NEAR(got, want, 0.01 * want + 1.0)
            << label << " p" << p;
    }
}

TEST(Histogram, StreamingMatchesExactUniform)
{
    Rng rng(0x0AA0);
    std::vector<TickDelta> samples;
    for (int i = 0; i < 200000; i++)
        samples.push_back(
            static_cast<TickDelta>(rng.nextUInt(50'000'000)));
    expectStreamingClose(samples, "uniform");
}

TEST(Histogram, StreamingMatchesExactZipfian)
{
    Rng rng(0x21F0);
    ZipfianGenerator zipf(1'000'000);
    std::vector<TickDelta> samples;
    for (int i = 0; i < 200000; i++)
        samples.push_back(static_cast<TickDelta>(zipf.next(rng) + 1));
    expectStreamingClose(samples, "zipfian");
}

TEST(Histogram, StreamingMatchesExactBimodal)
{
    // Latency-shaped: a tight fast mode (cache hit / early ACK) plus
    // a slow mode two orders of magnitude out (full RTT).
    Rng rng(0xB1B0);
    std::vector<TickDelta> samples;
    for (int i = 0; i < 200000; i++) {
        if (rng.nextBool(0.8))
            samples.push_back(static_cast<TickDelta>(
                20'000 + rng.nextUInt(2'000)));
        else
            samples.push_back(static_cast<TickDelta>(
                2'000'000 + rng.nextUInt(500'000)));
    }
    expectStreamingClose(samples, "bimodal");
}

TEST(Histogram, SmallValuesAreExact)
{
    // Values below 256 land in width-1 buckets: exact percentiles.
    Histogram hist;
    for (int i = 1; i <= 100; i++)
        hist.add(i * 2);
    EXPECT_EQ(hist.percentile(50), 100);
    EXPECT_EQ(hist.percentile(99), 198);
    EXPECT_EQ(hist.min(), 2);
    EXPECT_EQ(hist.max(), 200);
    EXPECT_DOUBLE_EQ(hist.mean(), 101.0);
}

TEST(Histogram, MergeMatchesCombinedAdd)
{
    Rng rng(0x3E0);
    Histogram a, b, combined;
    for (int i = 0; i < 5000; i++) {
        auto v = static_cast<std::int64_t>(rng.nextUInt(10'000'000));
        (i % 2 ? a : b).add(v);
        combined.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(a.percentile(p), combined.percentile(p));
}

TEST(Histogram, NegativeClampsToZero)
{
    Histogram hist;
    hist.add(-5);
    EXPECT_EQ(hist.min(), 0);
    EXPECT_EQ(hist.percentile(50), 0);
}

TEST(LatencySeries, StreamingCdfTracksExact)
{
    Rng rng(0xCDF);
    Histogram streaming;
    std::vector<TickDelta> samples;
    for (int i = 0; i < 100000; i++) {
        auto v = static_cast<TickDelta>(rng.nextUInt(5'000'000));
        samples.push_back(v);
        streaming.add(v);
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t points = 20;
    auto ws = streaming.cdf(points);
    ASSERT_EQ(ws.size(), points);
    for (std::size_t i = 0; i < points; i++) {
        double frac = static_cast<double>(i + 1) /
                      static_cast<double>(points);
        EXPECT_DOUBLE_EQ(ws[i].second, frac);
        double want = static_cast<double>(
            samples[nearestRankIndex(frac, samples.size())]);
        EXPECT_NEAR(static_cast<double>(ws[i].first), want,
                    0.01 * want + 1.0);
    }
}

TEST(LatencySeries, MergeAdoptsModeAndAggregates)
{
    Histogram src;
    src.add(10);
    src.add(20);

    Histogram agg;
    agg.merge(src);
    EXPECT_EQ(agg.count(), 2u);

    Histogram one;
    one.add(30);
    Histogram agg2;
    agg2.merge(one);
    agg2.merge(one);
    EXPECT_EQ(agg2.count(), 2u);
    EXPECT_EQ(agg2.max(), 30);
}

TEST(LatencySeries, StreamingClearKeepsMode)
{
    Histogram series;
    series.add(5);
    series.clear();
    EXPECT_TRUE(series.empty());
    series.add(7);
    EXPECT_EQ(series.count(), 1u);
    EXPECT_EQ(series.min(), 7);
    EXPECT_EQ(series.max(), 7);
}

TEST(Histogram, DigestIsOrderSensitive)
{
    auto fill = [](std::initializer_list<std::int64_t> values) {
        Histogram hist;
        for (std::int64_t v : values)
            hist.add(v);
        return hist;
    };
    Histogram a = fill({0, 300, 70'000, 5});
    Histogram same = fill({0, 300, 70'000, 5});
    Histogram swapped = fill({0, 70'000, 300, 5});
    EXPECT_EQ(a.digest(), same.digest());
    EXPECT_NE(a.digest(), swapped.digest())
        << "a swapped pair must change the digest";
    // Same buckets and count, so only the digest tells them apart.
    EXPECT_EQ(a.percentile(50), swapped.percentile(50));
    EXPECT_NE(fill({}).digest(), fill({0}).digest())
        << "a leading zero sample must move the digest";

    // clear() resets the digest to a fresh histogram's.
    Histogram cleared = fill({1, 2, 3});
    cleared.clear();
    EXPECT_EQ(cleared.digest(), Histogram().digest());
    cleared.add(0);
    cleared.add(300);
    cleared.add(70'000);
    cleared.add(5);
    EXPECT_EQ(cleared.digest(), a.digest());

    // merge() is deterministic and, like add(), order-sensitive.
    Histogram b = fill({9, 8});
    Histogram ab1 = fill({0, 300, 70'000, 5});
    Histogram ab2 = fill({0, 300, 70'000, 5});
    ab1.merge(b);
    ab2.merge(b);
    EXPECT_EQ(ab1.digest(), ab2.digest());
    Histogram ba = fill({9, 8});
    ba.merge(a);
    EXPECT_NE(ab1.digest(), ba.digest());
    EXPECT_EQ(ab1.count(), ba.count());
}

TEST(ThroughputMeter, OpsPerSecond)
{
    ThroughputMeter meter;
    meter.start(seconds(1.0));
    for (int i = 0; i < 500; i++)
        meter.complete();
    meter.stop(seconds(2.0));
    EXPECT_DOUBLE_EQ(meter.opsPerSecond(), 500.0);
}

TEST(TablePrinter, FormatsNumbers)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(10.0, 0), "10");
}

} // namespace
} // namespace pmnet
