/**
 * @file
 * Group-commit persist path: batched vs per-op fencing at the 10 Gbps
 * knee (DESIGN.md section 13).
 *
 * Every update's log write retires with a fence before its PmnetAck
 * may leave. The device stages writes into an open commit epoch and
 * retires the whole batch with a single fence (doorbell batching, as
 * in "Correct, Fast Remote Persistence"); epoch 1 is per-op fencing,
 * one stall of the PM write pipeline per update. The sweep drives
 * update-only 1000 B traffic at a low-load and an at-the-knee client
 * count across an epoch-size ladder.
 *
 * Expectation: with a non-zero fence cost the per-op discipline caps
 * device throughput below the line rate at the knee; group commit
 * amortizes the stall across the batch and restores wire-limited
 * throughput, at a bounded ack-hold latency cost at low load
 * (the doorbell).
 */

#include "bench_util.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

/** Fence cost: draining the device PM write pipeline (~several PM
 *  write times; deliberately expensive so the per-op discipline is
 *  visibly fence-bound at line rate). */
constexpr TickDelta kFenceLatency = nanoseconds(1500);

testbed::TestbedConfig
pointConfig(int clients, std::uint32_t epoch_ops)
{
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = clients;
    config.serverKind = testbed::ServerKind::Ideal;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.updateRatio = 1.0;
        ycsb.valueSize = 1000;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    config.device.fenceLatency = kFenceLatency;
    config.device.epochOps = epoch_ops;
    // The ops ladder drives the sweep; park the bytes threshold.
    config.device.epochBytes = 1u << 20;
    return config;
}

struct Point
{
    double gbps;
    double mean_us;
    double p99_us;
};

Point
toPoint(const testbed::RunResults &results)
{
    Point point;
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
    BenchJson json("fig_group_commit", argc, argv);
    printHeader("Group commit: batched vs per-op fencing (1000B, 10G)",
                "persist-path ablation (DESIGN.md section 13)",
                "per-op fencing caps throughput below line rate at the "
                "knee; epoch batching amortizes the fence and restores "
                "it, for a bounded doorbell hold at low load");

    TablePrinter table({"clients", "mode", "epoch", "Gbps", "mean(us)",
                        "p99(us)"});

    std::vector<int> client_counts = {4, 48};
    std::vector<std::uint32_t> epoch_ladder = {1, 2, 4, 8, 16, 32};
    TickDelta warmup = milliseconds(2);
    TickDelta measure = milliseconds(20);
    if (json.smoke()) {
        client_counts = {2};
        epoch_ladder = {1, 4};
        warmup = milliseconds(0.2);
        measure = milliseconds(1);
    }

    std::vector<testbed::TestbedConfig> configs;
    for (int clients : client_counts)
        for (std::uint32_t epoch_ops : epoch_ladder)
            configs.push_back(pointConfig(clients, epoch_ops));
    auto results = testbed::runSweep(std::move(configs), warmup, measure);

    // Every row is "batched"; the epoch-1 row is per-op fencing. The
    // column stays so pinned rows keep their shape.
    std::size_t at = 0;
    for (int clients : client_counts) {
        for (std::uint32_t epoch_ops : epoch_ladder) {
            Point point = toPoint(results[at++]);
            table.addRow({std::to_string(clients), "batched",
                          std::to_string(epoch_ops),
                          TablePrinter::fmt(point.gbps),
                          TablePrinter::fmt(point.mean_us, 1),
                          TablePrinter::fmt(point.p99_us, 1)});
            json.beginRow();
            json.field("clients", static_cast<std::uint64_t>(clients));
            json.field("mode", std::string("batched"));
            json.field("epoch_ops",
                       static_cast<std::uint64_t>(epoch_ops));
            json.field("gbps", point.gbps);
            json.field("mean_us", point.mean_us);
            json.field("p99_us", point.p99_us);
        }
    }
    table.print();
    return 0;
}
