/**
 * @file
 * Span tracer for the benchmark's traced run.
 *
 * Spans are recorded only around the calls the benchmark's own files
 * make into a layer (constructors, runFor slices, pollOnce, requests).
 * Each span carries a name, start, end, the span that caused it and a
 * request id. Nested spans on one thread form a stack; a span's self
 * time is its duration minus the time its direct children cover, and
 * is aggregated per name as spans close. Request spans (send to
 * completion) overlap the polls that carry them, so they are recorded
 * as unparented async spans and never enter the stack.
 *
 * One Tracer per thread; nothing here locks. A disabled tracer
 * records nothing and costs one branch per call.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    /** Spans written to the trace file; every span is aggregated. */
    static constexpr std::size_t kKeep = 10000;

    /**
     * @param enabled false makes every call a no-op.
     * @param thread label written with each record.
     */
    Tracer(bool enabled, std::string thread);

    bool enabled() const { return enabled_; }

    /** Open a nested span. @return its id (0 when disabled). */
    std::uint64_t begin(const char *name);

    /**
     * Close the innermost open span, which must be @p id.
     * @param cpu_ns CPU time the span consumed (-1 = not measured).
     */
    void end(std::uint64_t id, std::int64_t cpu_ns = -1);

    /** Record a finished async span (never a parent or child). */
    void async(const char *name, std::int64_t start_ns,
               std::int64_t end_ns, std::uint64_t request);

    /** Append this tracer's records as JSON lines. */
    void writeRecords(std::FILE *out) const;

    /** Append one JSON line per name with count/total/self ns. */
    void writeSummary(std::FILE *out) const;

  private:
    /** Per-name totals over every span closed so far. */
    struct Aggregate
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
        std::int64_t cpuNs = 0; ///< sum of the spans' CPU deltas
    };

    struct Open
    {
        std::uint64_t id;
        const char *name;
        std::int64_t start;
        std::int64_t childNs;
        std::uint64_t parent;
    };

    struct Record
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t request;
        std::int64_t cpuNs;
    };

    void aggregate(const char *name, std::int64_t duration,
                   std::int64_t self, std::int64_t cpu_ns);
    void retain(const Record &record);

    bool enabled_;
    std::string thread_;
    std::uint64_t nextId_ = 1;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::uint64_t dropped_ = 0;
    std::map<std::string, Aggregate> aggregates_;
};

/** RAII span on @p tracer. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.begin(name))
    {
    }
    ~Span() { tracer_.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
