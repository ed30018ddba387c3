/**
 * @file
 * Measurement collection for the evaluation harness.
 *
 * LatencySeries records latency samples in one of two modes:
 *
 *  - Exact (default): every raw sample is stored, so percentiles and
 *    CDFs are exact — what tests and small runs want, and what the
 *    paper's CDF plots (Fig 20) are extracted from.
 *  - Streaming: samples feed a log-bucketed Histogram (O(1) add,
 *    fixed footprint, < 0.4% quantile error) — what the large
 *    fig16/fig19/fig20 sweep grids opt into, where raw storage and
 *    per-query re-sorting of millions of samples dominated the
 *    measurement cost.
 *
 * ThroughputMeter converts completed-request counts over simulated
 * time into requests/second.
 */

#ifndef PMNET_COMMON_STATS_H
#define PMNET_COMMON_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"

namespace pmnet {

/** How a LatencySeries stores its samples. */
enum class StatsMode {
    Exact,     ///< raw samples, exact percentiles/CDF
    Streaming, ///< log-bucketed histogram, bounded-error percentiles
};

/** A collection of latency samples with percentile/CDF extraction. */
class LatencySeries
{
  public:
    LatencySeries() = default;
    explicit LatencySeries(StatsMode mode) : mode_(mode) {}

    StatsMode mode() const { return mode_; }

    /** Switch storage mode. @pre no samples recorded yet. */
    void setMode(StatsMode mode);

    /** Record one sample (in simulated ns). */
    void add(TickDelta sample);

    /**
     * Fold another series' samples into this one. An empty series
     * adopts @p other's mode; merging a streaming source into a
     * non-empty exact series is an error (raw samples are gone).
     */
    void merge(const LatencySeries &other);

    /** Number of recorded samples. */
    std::size_t count() const;

    bool empty() const { return count() == 0; }

    /** Arithmetic mean in ns (exact in both modes). @pre not empty. */
    double mean() const;

    /**
     * Percentile (0 <= p <= 100) in ns: exact in Exact mode, within
     * Histogram::kMaxRelativeError in Streaming mode. @pre not empty.
     */
    TickDelta percentile(double p) const;

    /** Extrema (exact in both modes). @pre not empty. */
    TickDelta min() const;
    TickDelta max() const;

    /**
     * Evenly spaced CDF points: @p points pairs of
     * (latency_ns, cumulative_fraction).
     */
    std::vector<std::pair<TickDelta, double>> cdf(std::size_t points) const;

    /** Discard all samples (e.g. after warm-up). Keeps the mode. */
    void clear();

    /**
     * Raw access for custom analyses. Only populated in Exact mode;
     * a streaming series has no raw samples to expose.
     */
    const std::vector<TickDelta> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    StatsMode mode_ = StatsMode::Exact;
    std::vector<TickDelta> samples_;
    Histogram hist_;
    mutable std::vector<TickDelta> sorted_;
    mutable bool dirty_ = true;
};

/** Completed-operation counter over a simulated time window. */
class ThroughputMeter
{
  public:
    /** Begin (or re-begin) the measurement window at @p now. */
    void start(Tick now);

    /** Count one completed operation. */
    void complete() { completed_++; }

    /** Close the window at @p now. */
    void stop(Tick now);

    std::uint64_t completed() const { return completed_; }

    /** Operations per simulated second. @pre window closed, non-empty. */
    double opsPerSecond() const;

  private:
    Tick startTick_ = 0;
    Tick stopTick_ = 0;
    std::uint64_t completed_ = 0;
};

/** Named monotonically increasing counter. */
struct Counter
{
    std::uint64_t value = 0;

    void inc(std::uint64_t by = 1) { value += by; }
    std::uint64_t get() const { return value; }
};

/**
 * Minimal fixed-width table printer used by the bench binaries to emit
 * the paper's rows/series in a uniform format.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render to stdout. */
    void print() const;

    static std::string fmt(double v, int precision = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pmnet

#endif // PMNET_COMMON_STATS_H
