/**
 * @file
 * What the workload runners share: the command-line options, the
 * report every run fills (metrics by name and unit, attempts,
 * failures, run context) and small statistics helpers.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/command_store.h"

namespace perfbench {

/** Set-ups per run of sim_ycsb_cached and gw_*; setup_s is their median. */
constexpr int kSetups = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for gateway data dirs and trace files. */
    std::string workDir = ".";
    /**
     * Test hook: overwrite one key behind the checker's back before
     * the post-restart read-back, which must then count a failure.
     */
    bool corruptReadback = false;
};

/** Everything one run reports; printed as one JSON line. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit);

    /** Report @p names as 0: the workload does not run that layer. */
    void notApplicable(const std::vector<std::pair<std::string, std::string>>
                           &names_and_units);

    /** Count one failed operation; the first few reasons are kept. */
    void fail(const std::string &reason);

    void context(const std::string &key, const std::string &value);
    void context(const std::string &key, double value);

    std::uint64_t attempted = 0;

    void print(std::FILE *out) const;

  private:
    struct Metric
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::string> context_;
    std::vector<std::string> failures_;
    std::uint64_t failed_ = 0;
};

/** @p count ÷ @p ops, 0 when there were no ops. */
double perOp(double count, double ops);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** The @p q quantile (0..1) of @p values, interpolated (0 when empty). */
double quantile(std::vector<double> values, double q);

/**
 * A measured phase cut into short slices of work.
 *
 * On a shared VM the host's speed moves with the neighbours' load by up
 * to 1.7x on second timescales, and a run's median or mean lands on
 * whichever state happened to dominate it. The contended state shows
 * up in every run, so the phase is reported by it: the rate the
 * slowest 5 % of slices sustain and the CPU cost of the costliest 5 %.
 */
struct Slices
{
    std::vector<double> opsPerSecond;
    std::vector<double> cpuUsPerOp;
    std::int64_t wallNs = 0;
    std::uint64_t ops = 0;

    /** Record one slice of @p ops requests. */
    void add(std::uint64_t ops, std::int64_t wall_ns, std::int64_t cpu_ns);

    /** 5th-percentile slice rate, requests per second. */
    double sustainedOpsPerSecond() const { return quantile(opsPerSecond, 0.05); }

    /** 95th-percentile slice CPU cost, microseconds per request. */
    double sustainedCpuUsPerOp() const { return quantile(cpuUsPerOp, 0.95); }

    /** Slice count and rate quartiles, to explain an outlier run. */
    void describe(Report &report) const;
};

class Tracer;

/** Commands a workload sent, with the session that sent each. */
using CommandTap = std::vector<std::pair<std::uint16_t, pmnet::apps::Command>>;

/**
 * Traced run only (0 otherwise): time a PmHeap of @p heap_bytes built
 * alone (pm.heap_build_s), @p populate into a fresh CommandStore on it
 * (apps.populate_s), and a replay of @p tap through executeToResponse
 * (apps.exec_ns_per_cmd).
 */
void replayLayers(const Options &opts, std::size_t heap_bytes,
                  pmnet::kv::KvKind kind,
                  const std::function<void(pmnet::apps::CommandStore &)>
                      &populate,
                  const CommandTap &tap, Report &report, Tracer &tracer);

/**
 * Write every record, then every per-name summary, of @p tracers to
 * <workDir>/trace-<workload>-seed<N>.jsonl; a no-op when not tracing.
 */
void writeTrace(const Options &opts,
                const std::vector<const Tracer *> &tracers, Report &report);

/** Run one simulator workload ("sim_..."). @return false if unknown. */
bool runSimWorkload(const Options &opts, Report &report);

/** Run one gateway workload ("gw_..."). @return false if unknown. */
bool runGatewayWorkload(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
