/**
 * @file
 * Shard scaling: consistent-hash PMNet fabric scale-out (DESIGN.md
 * §14).
 *
 * Fixed per-shard open-loop load (128 clients per shard, one 100 B
 * update each 100 us) against 1/2/4/8 independent replication chains
 * hanging off one merge switch, keys routed by the ShardMap. Two key
 * popularity columns: the calibrated YCSB zipf (theta 0.99) and a
 * hot-shard incast (theta 1.2 — one shard owns the hottest keys and
 * absorbs disproportionate load while the others stay cool).
 *
 * Expectation: aggregate throughput scales near-linearly with the
 * shard count (4 shards >= 3x 1 shard at fixed per-shard load) since
 * chains share nothing but the merge switch; the hot-shard column
 * shows the skew tax — aggregate still scales, but tail latency is
 * set by the one hot chain, not the fabric average.
 */

#include "bench_util.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

constexpr std::size_t kValueSize = 100;

testbed::TestbedConfig
pointConfig(unsigned shards, int clients_per_shard, double zipf_theta,
            TickDelta gap)
{
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.shards = shards;
    config.clientCount = clients_per_shard * static_cast<int>(shards);
    config.replicationDegree = 2;
    config.serverKind = testbed::ServerKind::CommandStore;
    config.storeKind = kv::KvKind::Hashmap;
    config.openLoopGap = gap;
    config.openLoopMaxOutstanding = 64;
    config.workload = [zipf_theta](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.updateRatio = 1.0;
        ycsb.valueSize = kValueSize;
        ycsb.zipfTheta = zipf_theta;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

struct Point
{
    double kops;
    double gbps;
    double p50_us;
    double p99_us;
};

Point
toPoint(const testbed::RunResults &results)
{
    Point point;
    point.kops = results.opsPerSecond / 1e3;
    double wire_bits =
        results.opsPerSecond *
        (kValueSize + 20 /*cmd env*/ + net::Packet::kEnvelopeBytes +
         net::PmnetHeader::kWireSize) *
        8;
    point.gbps = wire_bits / 1e9;
    point.p50_us = us(results.allLatency.percentile(50));
    point.p99_us = us(results.allLatency.percentile(99));
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJson json("fig_shard_scaling", argc, argv);
    printHeader(
        "Shard scaling: consistent-hash fabric scale-out (100B, "
        "open loop)",
        "multi-switch PMNet fabric (DESIGN.md section 14)",
        "aggregate throughput scales near-linearly with shards at "
        "fixed per-shard load (4 shards >= 3x 1 shard); the zipf-1.2 "
        "hot-shard column pays the skew in tail latency, not in "
        "aggregate scaling");

    TablePrinter table({"shards", "clients", "zipf", "kops/s", "Gbps",
                        "p50(us)", "p99(us)"});

    std::vector<unsigned> shard_counts = {1, 2, 4, 8};
    std::vector<double> thetas = {0.99, 1.2};
    int clients_per_shard = 128;
    TickDelta gap = microseconds(100);
    TickDelta warmup = milliseconds(2);
    TickDelta measure = milliseconds(20);
    if (json.smoke()) {
        shard_counts = {1, 4};
        clients_per_shard = 8;
        gap = microseconds(50);
        warmup = milliseconds(0.2);
        measure = milliseconds(1);
    }

    std::vector<testbed::TestbedConfig> configs;
    for (unsigned shards : shard_counts) {
        for (double theta : thetas)
            configs.push_back(
                pointConfig(shards, clients_per_shard, theta, gap));
    }
    for (auto &config : configs)
        config.statsMode = StatsMode::Streaming;
    auto results = testbed::runSweep(std::move(configs), warmup, measure);

    std::size_t at = 0;
    for (unsigned shards : shard_counts) {
        for (double theta : thetas) {
            Point point = toPoint(results[at++]);
            int clients =
                clients_per_shard * static_cast<int>(shards);
            table.addRow({std::to_string(shards),
                          std::to_string(clients),
                          TablePrinter::fmt(theta),
                          TablePrinter::fmt(point.kops, 1),
                          TablePrinter::fmt(point.gbps),
                          TablePrinter::fmt(point.p50_us, 1),
                          TablePrinter::fmt(point.p99_us, 1)});
            json.beginRow();
            json.field("shards", static_cast<std::uint64_t>(shards));
            json.field("clients", static_cast<std::uint64_t>(clients));
            json.field("zipf_theta", theta);
            json.field("kops", point.kops);
            json.field("gbps", point.gbps);
            json.field("p50_us", point.p50_us);
            json.field("p99_us", point.p99_us);
        }
    }
    table.print();
    return 0;
}
