/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries: the
 * paper's workload list (Section VI-A2), uniform headers, and small
 * formatting utilities. Every bench prints the rows/series of one
 * paper table or figure; EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef PMNET_BENCH_BENCH_UTIL_H
#define PMNET_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/snapshot.h"
#include "testbed/system.h"
#include "tools/cli.h"

namespace pmnet::benchutil {

/**
 * Machine-readable bench output (the `--json <path>` flag).
 *
 * Every bench binary accepts `--json <path>`; when given, each printed
 * row is mirrored as one JSON object into an array at @p path so a
 * perf trajectory can be tracked across PRs (`BENCH_*.json`).
 * Also parses `--smoke`, which benches use to shrink their grid to a
 * few milliseconds of simulated time for the bench-smoke CTest target.
 *
 * Parsing goes through cli::ArgParser (tolerating bench-specific
 * extra arguments) and rendering through obs::Snapshot's BenchRows
 * style, which reproduces the historical array-of-inline-objects
 * format byte-for-byte.
 */
class BenchJson
{
  public:
    BenchJson(const char *bench_name, int argc, char **argv)
        : bench_(bench_name), rows_(obs::Json::array())
    {
        cli::ArgParser parser(bench_name, "figure-reproduction bench");
        cli::addJsonPath(parser, common_);
        cli::addSmoke(parser, common_);
        parser.parse(argc, argv, /*allow_unknown=*/true);
    }

    ~BenchJson() { write(); }

    BenchJson(const BenchJson &) = delete;
    BenchJson &operator=(const BenchJson &) = delete;

    /** True when the binary was invoked with `--smoke`. */
    bool smoke() const { return common_.smoke; }

    /** True when rows will be written to a file. */
    bool enabled() const { return !common_.jsonPath.empty(); }

    /** Start a new result row. Subsequent field() calls land in it. */
    void
    beginRow()
    {
        rows_.push(obs::Json::object());
        field("bench", bench_);
    }

    void
    field(const std::string &key, const std::string &value)
    {
        row().set(key, obs::Json(value));
    }

    void
    field(const std::string &key, double value)
    {
        row().set(key, obs::Json(value));
    }

    void
    field(const std::string &key, std::uint64_t value)
    {
        row().set(key, obs::Json(value));
    }

    /** Write the collected rows; harmless without `--json`. */
    void
    write()
    {
        if (common_.jsonPath.empty() || written_)
            return;
        obs::Snapshot snapshot(rows_);
        if (!snapshot.writeFile(common_.jsonPath,
                                obs::JsonStyle::BenchRows)) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         common_.jsonPath.c_str());
            return;
        }
        written_ = true;
    }

  private:
    obs::Json &row() { return rows_.items().back(); }

    std::string bench_;
    cli::CommonOptions common_;
    bool written_ = false;
    obs::Json rows_;
};

/** One evaluated workload (paper Section VI-A2). */
struct WorkloadSpec
{
    enum class Driver { Ycsb, Retwis, Tpcc };

    std::string name;
    kv::KvKind kind = kv::KvKind::Hashmap;
    /** Original workload is TCP-based (Redis, Twitter, TPCC). */
    bool tcp = false;
    Driver driver = Driver::Ycsb;
    /** Fixed app overhead per request (full-server event loop). */
    TickDelta appOverhead = 0;

    /** Workload factory with the requested update ratio. */
    testbed::WorkloadFactory
    factory(double update_ratio, std::size_t value_size = 100) const
    {
        Driver d = driver;
        switch (d) {
          case Driver::Ycsb: {
            return [update_ratio, value_size](std::uint16_t session) {
                apps::YcsbConfig config;
                config.keyCount = 20000;
                config.updateRatio = update_ratio;
                config.valueSize = value_size;
                return apps::makeYcsbWorkload(config, session);
            };
          }
          case Driver::Retwis: {
            return [update_ratio](std::uint16_t session) {
                apps::RetwisConfig config;
                config.updateRatio = update_ratio;
                return apps::makeRetwisWorkload(config, session);
            };
          }
          case Driver::Tpcc: {
            return [update_ratio](std::uint16_t session) {
                apps::TpccConfig config;
                config.updateRatio = update_ratio;
                return apps::makeTpccWorkload(config, session);
            };
          }
        }
        return {};
    }
};

/** The paper's eight workloads (five PMDK KV + Redis/Twitter/TPCC). */
inline std::vector<WorkloadSpec>
paperWorkloads()
{
    using Driver = WorkloadSpec::Driver;
    return {
        {"btree", kv::KvKind::BTree, false, Driver::Ycsb},
        {"ctree", kv::KvKind::CTree, false, Driver::Ycsb},
        {"rbtree", kv::KvKind::RBTree, false, Driver::Ycsb},
        {"hashmap", kv::KvKind::Hashmap, false, Driver::Ycsb},
        {"skiplist", kv::KvKind::SkipList, false, Driver::Ycsb},
        {"redis", kv::KvKind::Hashmap, true, Driver::Ycsb,
         microseconds(8.0)},
        {"twitter", kv::KvKind::Hashmap, true, Driver::Retwis,
         microseconds(8.0)},
        {"tpcc", kv::KvKind::Hashmap, true, Driver::Tpcc,
         microseconds(8.0)},
    };
}

/** Key-value-store workloads only (the Fig 20 caching experiment). */
inline std::vector<WorkloadSpec>
kvWorkloads()
{
    auto all = paperWorkloads();
    all.resize(6); // drop twitter + tpcc (complex queries, uncacheable)
    return all;
}

/** Uniform bench banner. */
inline void
printHeader(const char *title, const char *paper_ref,
            const char *expectation)
{
    std::printf("== %s ==\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("paper expectation: %s\n\n", expectation);
}

inline double
us(double ns)
{
    return ns / 1000.0;
}

inline double
us(TickDelta ns)
{
    return static_cast<double>(ns) / 1000.0;
}

} // namespace pmnet::benchutil

#endif // PMNET_BENCH_BENCH_UTIL_H
