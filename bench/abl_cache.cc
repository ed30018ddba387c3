/**
 * @file
 * Ablation: in-switch read-cache sensitivity (Section IV-D).
 *
 * Hit rate — and therefore the Fig 20 read-latency benefit — depends
 * on key-popularity skew and cache capacity. Sweeps zipfian theta and
 * the cache's entry budget on a read-heavy mix and reports hit rate
 * plus read-latency percentiles. `--smoke` keeps all twelve points
 * but measures 4 ms after a 1 ms warm-up instead of 25 ms after 3 ms.
 */

#include "bench_util.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

/** One sweep point; it writes its device's cache hit rate to
 *  @p hit_rate, a slot no other job touches. */
testbed::SweepJob
pointJob(double theta, std::size_t cache_entries, TickDelta warmup,
         TickDelta window, double *hit_rate)
{
    return [=]() {
        testbed::TestbedConfig config;
        config.mode = testbed::SystemMode::PmnetSwitch;
        config.cacheEnabled = true;
        config.clientCount = 16;
        config.device.cacheCapacity = cache_entries;
        config.workload = [theta](std::uint16_t session) {
            apps::YcsbConfig ycsb;
            ycsb.keyCount = 50000;
            ycsb.updateRatio = 0.1;
            ycsb.zipfTheta = theta;
            return apps::makeYcsbWorkload(ycsb, session);
        };
        testbed::Testbed bed(std::move(config));
        auto results = bed.run(warmup, window);
        const auto &cache = bed.device(0).cache();
        double probes = static_cast<double>(cache.hits + cache.misses);
        *hit_rate =
            probes > 0 ? static_cast<double>(cache.hits) / probes : 0.0;
        return results;
    };
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJson json("abl_cache", argc, argv);
    printHeader("Ablation: read-cache hit rate vs skew and capacity",
                "Section IV-D (read caching) sensitivity",
                "higher skew and larger caches push the read CDF left; "
                "uniform traffic gains little");

    TickDelta warmup = json.smoke() ? milliseconds(1) : milliseconds(3);
    TickDelta window = json.smoke() ? milliseconds(4) : milliseconds(25);

    const std::vector<double> thetas = {0.0, 0.8, 0.99, 1.2};
    const std::vector<std::size_t> capacities = {256, 4096, 65536};

    std::vector<double> hit_rates(thetas.size() * capacities.size());
    std::vector<testbed::SweepJob> jobs;
    for (double theta : thetas)
        for (std::size_t entries : capacities)
            jobs.push_back(pointJob(theta, entries, warmup, window,
                                    &hit_rates[jobs.size()]));
    auto results = testbed::runSweepJobs(std::move(jobs));

    TablePrinter table({"zipf theta", "cache entries", "hit rate",
                        "read p50(us)", "read p99(us)"});
    std::size_t at = 0;
    for (double theta : thetas) {
        for (std::size_t entries : capacities) {
            double hit_rate = hit_rates[at];
            const Histogram &reads = results[at++].readLatency;
            TickDelta p50 = reads.percentile(50);
            TickDelta p99 = reads.percentile(99);
            table.addRow({TablePrinter::fmt(theta, 2),
                          std::to_string(entries),
                          TablePrinter::fmt(hit_rate * 100, 1) + "%",
                          TablePrinter::fmt(us(p50), 1),
                          TablePrinter::fmt(us(p99), 1)});
            json.beginRow();
            json.field("zipf_theta", theta);
            json.field("cache_entries",
                       static_cast<std::uint64_t>(entries));
            json.field("hit_rate", hit_rate);
            json.field("read_p50_ns", static_cast<std::uint64_t>(p50));
            json.field("read_p99_ns", static_cast<std::uint64_t>(p99));
        }
    }
    table.print();
    return 0;
}
