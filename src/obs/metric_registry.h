/**
 * @file
 * Hierarchical metric registry (DESIGN.md section 11).
 *
 * The registry is the one place every component's telemetry is named
 * and discoverable. It is deliberately split into a *hot* half and a
 * *cold* half:
 *
 *  - obs::Counter is a plain uint64 wrapper. Components keep Counter
 *    fields and bump them with ++ / += on the per-packet fast paths —
 *    exactly the machine code a raw uint64 field generates, with no
 *    indirection, locking or allocation.
 *  - Registration (naming a counter, attaching a probe) happens once
 *    at construction time; snapshotting walks the registrations and
 *    builds a nested obs::Json tree from the dotted paths. Both are
 *    cold paths and may allocate.
 *
 * Two registration kinds:
 *
 *  - attach(path, counter): a component-owned Counter — this is how
 *    the private counter holders (DeviceStats, ClientStats,
 *    ServerStats, PacketPool::Stats, ...) surface their fields without
 *    moving them. value(path) reads it.
 *  - probe(path, fn): a function sampled at snapshot time (queue
 *    depths, log occupancy, derived ratios). Never on the hot path,
 *    and only toJson() evaluates it.
 *
 * Not thread-safe by design: one registry belongs to one Testbed, and
 * the sweep harness gives every job its own Testbed on one thread.
 */

#ifndef PMNET_OBS_METRIC_REGISTRY_H
#define PMNET_OBS_METRIC_REGISTRY_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "obs/json.h"

namespace pmnet::obs {

/**
 * A plain uint64 event counter. Trivially copyable; supports the
 * same expressions a raw uint64 stat field does (++, +=, =N,
 * implicit read).
 */
class Counter
{
  public:
    constexpr Counter() = default;
    constexpr Counter(std::uint64_t value) : value_(value) {}

    Counter &operator++() { ++value_; return *this; }
    std::uint64_t operator++(int) { return value_++; }
    Counter &operator+=(std::uint64_t by) { value_ += by; return *this; }
    Counter &operator=(std::uint64_t value) { value_ = value; return *this; }

    constexpr operator std::uint64_t() const { return value_; }

    std::uint64_t get() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Hierarchical registry of named counters and probes. */
class MetricRegistry
{
  public:
    /** Snapshot-time sampled metric (cold path only). */
    using ProbeFn = std::function<Json()>;

    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /**
     * Register a component-owned counter. Re-attaching a path points
     * it at @p external.
     */
    void attach(std::string_view path, Counter &external);

    /** Register a snapshot-time probe. Re-registering replaces it. */
    void probe(std::string_view path, ProbeFn fn);

    /** Counter value at @p path; 0 when absent or a probe. */
    std::uint64_t value(std::string_view path) const;

    bool contains(std::string_view path) const;

    /**
     * Render all registered metrics as a nested Json object: the
     * dotted path "device0.log.size" lands at
     * {"device0": {"log": {"size": ...}}}. Insertion order follows
     * registration order.
     */
    Json toJson() const;

  private:
    /** A counter (counter != nullptr) or a probe. */
    struct Entry
    {
        std::string path;
        Counter *counter = nullptr;
        ProbeFn probe;
    };

    Entry *findEntry(std::string_view path);
    const Entry *findEntry(std::string_view path) const;
    Entry &addEntry(std::string_view path);

    std::vector<Entry> entries_;
    std::map<std::string, std::size_t, std::less<>> index_;
};

/** Standard {count, mean, p50, p99, max} summary of a latency
 *  histogram for snapshots. */
Json latencySummaryJson(const Histogram &latency);

} // namespace pmnet::obs

#endif // PMNET_OBS_METRIC_REGISTRY_H
