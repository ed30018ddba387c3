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

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

struct Point
{
    double hit_rate;
    TickDelta p50;
    TickDelta p99;
};

Point
measure(double theta, std::size_t cache_entries, TickDelta warmup,
        TickDelta window)
{
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

    auto &cache = bed.device(0).cache();
    Point point;
    double probes = static_cast<double>(cache.hits + cache.misses);
    point.hit_rate =
        probes > 0 ? static_cast<double>(cache.hits) / probes : 0.0;
    point.p50 = results.readLatency.percentile(50);
    point.p99 = results.readLatency.percentile(99);
    return point;
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

    TablePrinter table({"zipf theta", "cache entries", "hit rate",
                        "read p50(us)", "read p99(us)"});

    for (double theta : {0.0, 0.8, 0.99, 1.2}) {
        for (std::size_t entries :
             {std::size_t(256), std::size_t(4096), std::size_t(65536)}) {
            Point p = measure(theta, entries, warmup, window);
            table.addRow({TablePrinter::fmt(theta, 2),
                          std::to_string(entries),
                          TablePrinter::fmt(p.hit_rate * 100, 1) + "%",
                          TablePrinter::fmt(us(p.p50), 1),
                          TablePrinter::fmt(us(p.p99), 1)});
            json.beginRow();
            json.field("zipf_theta", theta);
            json.field("cache_entries",
                       static_cast<std::uint64_t>(entries));
            json.field("hit_rate", p.hit_rate);
            json.field("read_p50_ns", static_cast<std::uint64_t>(p.p50));
            json.field("read_p99_ns", static_cast<std::uint64_t>(p.p99));
        }
    }
    table.print();
    return 0;
}
