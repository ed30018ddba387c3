/**
 * @file
 * Fig 20 reproduction: CDF of request latency with 100% and 50%
 * updates for the KV workloads, comparing Client-Server, PMNet, and
 * PMNet with the in-switch read cache.
 *
 * Paper expectations:
 *  - 100% updates: PMNet's whole CDF sits ~3x left of the baseline;
 *    p99 improves 3.23x;
 *  - 50% updates, no cache: PMNet's CDF has a knee at the 50th
 *    percentile (reads still pay the full RTT);
 *  - 50% updates with cache: the benefit continues past p50 because
 *    cache hits serve most reads sub-RTT; mean latency 3.36x better.
 *
 * The workload x system grid runs through the parallel sweep harness;
 * each job's latency series is aggregated positionally afterwards, so
 * the printed CDFs match the old serial loop exactly.
 */

#include "bench_util.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

testbed::TestbedConfig
pointConfig(const WorkloadSpec &spec, testbed::SystemMode mode,
            bool cache, double update_ratio)
{
    testbed::TestbedConfig config;
    config.mode = mode;
    config.cacheEnabled = cache;
    config.clientCount = 16;
    config.storeKind = spec.kind;
    config.tcpWorkload = spec.tcp;
    config.appOverhead = spec.appOverhead;
    // Hot zipfian key space so the cache sees realistic hit rates.
    config.workload = [update_ratio](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 5000;
        ycsb.updateRatio = update_ratio;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

void
printCdf(const char *label, const Histogram &series)
{
    std::printf("%-22s", label);
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0})
        std::printf(" p%-4.0f %7.1f", p, us(series.percentile(p)));
    std::printf("   mean %7.1f us\n", us(series.mean()));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJson json("fig20_cdf_caching", argc, argv);
    printHeader("Fig 20: request latency CDF with and without caching",
                "Fig 20 (Section VI-B4)",
                "mean 3.36x with cache; p99 3.23x at 100% updates; "
                "50th-percentile knee without cache at 50% updates");

    std::vector<double> update_ratios = {1.0, 0.5};
    auto workloads = kvWorkloads();
    TickDelta warmup = milliseconds(3);
    TickDelta measure = milliseconds(25);
    if (json.smoke()) {
        update_ratios = {1.0};
        workloads.resize(1);
        warmup = milliseconds(0.2);
        measure = milliseconds(1);
    }

    for (double ratio : update_ratios) {
        std::printf("--- %.0f%% update requests ---\n", ratio * 100);

        // Three systems per workload, swept in parallel.
        std::vector<testbed::TestbedConfig> configs;
        for (const WorkloadSpec &spec : workloads) {
            configs.push_back(pointConfig(
                spec, testbed::SystemMode::ClientServer, false, ratio));
            configs.push_back(pointConfig(
                spec, testbed::SystemMode::PmnetSwitch, false, ratio));
            configs.push_back(pointConfig(
                spec, testbed::SystemMode::PmnetSwitch, true, ratio));
        }
        auto results =
            testbed::runSweep(std::move(configs), warmup, measure);

        // Aggregate over the KV workloads as the figure does; the
        // merged CDF is within the histogram's 0.4% error.
        Histogram base, pmnet, cached;
        std::size_t at = 0;
        for (std::size_t w = 0; w < workloads.size(); w++) {
            base.merge(results[at++].allLatency);
            pmnet.merge(results[at++].allLatency);
            cached.merge(results[at++].allLatency);
        }
        printCdf("client-server", base);
        printCdf("pmnet", pmnet);
        printCdf("pmnet + cache", cached);
        double p99_speedup = static_cast<double>(base.percentile(99)) /
                             static_cast<double>(pmnet.percentile(99));
        double mean_speedup = base.mean() / cached.mean();
        std::printf("p99 speedup (pmnet):        %.2fx\n", p99_speedup);
        std::printf("mean speedup (pmnet+cache): %.2fx\n\n",
                    mean_speedup);

        json.beginRow();
        json.field("update_ratio", ratio);
        json.field("base_mean_us", us(base.mean()));
        json.field("pmnet_mean_us", us(pmnet.mean()));
        json.field("cached_mean_us", us(cached.mean()));
        json.field("base_p99_us", us(base.percentile(99)));
        json.field("pmnet_p99_us", us(pmnet.percentile(99)));
        json.field("p99_speedup_pmnet", p99_speedup);
        json.field("mean_speedup_cached", mean_speedup);
    }
    return 0;
}
