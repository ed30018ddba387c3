/**
 * @file
 * Fig 16 reproduction: bandwidth vs latency under stress.
 *
 * Client instances scale up while each keeps sending 1000 B updates
 * (ideal handler). Paper expectations: latency flat at low load for
 * all three systems, PMNet consistently below the baseline, and a
 * latency spike as offered load reaches the 10 Gbps physical limit.
 *
 * The client-count x system grid (33 independent simulations) runs
 * through the parallel sweep harness.
 */

#include "bench_util.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

struct Point
{
    double gbps;
    double mean_us;
    double p99_us;
};

testbed::TestbedConfig
pointConfig(testbed::SystemMode mode, int clients)
{
    testbed::TestbedConfig config;
    config.mode = mode;
    config.clientCount = clients;
    config.serverKind = testbed::ServerKind::Ideal;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.updateRatio = 1.0;
        ycsb.valueSize = 1000;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

Point
toPoint(const testbed::RunResults &results)
{
    Point point;
    // Offered bandwidth = completed requests x on-wire request size.
    double wire_bits =
        results.opsPerSecond *
        (1000 + 20 /*cmd env*/ + net::Packet::kEnvelopeBytes +
         net::PmnetHeader::kWireSize) *
        8;
    point.gbps = wire_bits / 1e9;
    point.mean_us = us(results.updateLatency.mean());
    point.p99_us = us(results.updateLatency.percentile(99));
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJson json("fig16_stress", argc, argv);
    printHeader("Fig 16: bandwidth vs latency under stress (1000B)",
                "Fig 16 (Section VI-B1)",
                "flat latency until the 10 Gbps limit, then a spike; "
                "PMNet below baseline pre-knee");

    TablePrinter table({"clients", "cs Gbps", "cs mean(us)",
                        "sw Gbps", "sw mean(us)", "sw p99(us)",
                        "nic Gbps", "nic mean(us)"});

    std::vector<int> client_counts = {1, 2, 4, 8, 16, 24, 32, 48, 64,
                                      96, 128};
    TickDelta warmup = milliseconds(2);
    TickDelta measure = milliseconds(20);
    if (json.smoke()) {
        client_counts = {1, 2};
        warmup = milliseconds(0.2);
        measure = milliseconds(1);
    }

    std::vector<testbed::TestbedConfig> configs;
    for (int clients : client_counts) {
        configs.push_back(
            pointConfig(testbed::SystemMode::ClientServer, clients));
        configs.push_back(
            pointConfig(testbed::SystemMode::PmnetSwitch, clients));
        configs.push_back(
            pointConfig(testbed::SystemMode::PmnetNic, clients));
    }
    auto results = testbed::runSweep(std::move(configs), warmup, measure);

    std::size_t at = 0;
    for (int clients : client_counts) {
        Point cs = toPoint(results[at++]);
        Point sw = toPoint(results[at++]);
        Point nic = toPoint(results[at++]);
        table.addRow({std::to_string(clients),
                      TablePrinter::fmt(cs.gbps),
                      TablePrinter::fmt(cs.mean_us, 1),
                      TablePrinter::fmt(sw.gbps),
                      TablePrinter::fmt(sw.mean_us, 1),
                      TablePrinter::fmt(sw.p99_us, 1),
                      TablePrinter::fmt(nic.gbps),
                      TablePrinter::fmt(nic.mean_us, 1)});

        json.beginRow();
        json.field("clients", static_cast<std::uint64_t>(clients));
        json.field("cs_gbps", cs.gbps);
        json.field("cs_mean_us", cs.mean_us);
        json.field("sw_gbps", sw.gbps);
        json.field("sw_mean_us", sw.mean_us);
        json.field("sw_p99_us", sw.p99_us);
        json.field("nic_gbps", nic.gbps);
        json.field("nic_mean_us", nic.mean_us);
    }
    table.print();
    return 0;
}
