/**
 * @file
 * Measurement helpers for the evaluation harness.
 *
 * ThroughputMeter converts completed-request counts over simulated
 * time into requests/second; TablePrinter renders the bench tables.
 * Latency samples go to a Histogram (common/histogram.h).
 */

#ifndef PMNET_COMMON_STATS_H
#define PMNET_COMMON_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace pmnet {

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
