/**
 * @file
 * Fig 19 reproduction: throughput of the real workloads under PMNet,
 * normalized to the Client-Server baseline, with the update ratio
 * swept from 100% down to 25%.
 *
 * Workloads (Section VI-A2): the five PMDK structures and Redis driven
 * by the YCSB-like client, plus Twitter (Retwis) and TPCC. The
 * TCP-native workloads keep TCP in the baseline and pay the 9%
 * conversion tax under PMNet (Section VI-A3).
 *
 * Paper expectations: 4.31x average speedup at 100% updates,
 * decreasing as the read share grows (reads gain nothing without the
 * cache — see fig20 for the cached variant).
 *
 * The full workload x ratio x mode grid (64 independent simulations)
 * runs through the parallel sweep harness; results are identical to
 * the old serial loop because every job carries its own seed.
 */

#include "bench_util.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

testbed::TestbedConfig
pointConfig(const WorkloadSpec &spec, testbed::SystemMode mode,
            double update_ratio)
{
    testbed::TestbedConfig config;
    config.mode = mode;
    config.clientCount = 16;
    config.storeKind = spec.kind;
    config.tcpWorkload = spec.tcp;
    config.appOverhead = spec.appOverhead;
    config.workload = spec.factory(update_ratio);
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJson json("fig19_throughput", argc, argv);
    printHeader("Fig 19: normalized throughput vs update ratio",
                "Fig 19 (Section VI-B3)",
                "4.31x mean speedup at 100% updates, decreasing with "
                "the read share");

    std::vector<double> ratios = {1.0, 0.75, 0.5, 0.25};
    auto workloads = paperWorkloads();
    TickDelta warmup = milliseconds(3);
    TickDelta measure = milliseconds(25);
    if (json.smoke()) {
        workloads.resize(1);
        ratios = {1.0};
        warmup = milliseconds(0.2);
        measure = milliseconds(1);
    }

    std::vector<std::string> header{"workload"};
    for (double ratio : ratios)
        header.push_back(TablePrinter::fmt(ratio * 100, 0) + "% upd");
    header.push_back("baseline ops/s @100%");
    TablePrinter table(header);

    // One job per (workload, ratio, mode) grid point; baseline and
    // PMNet runs interleave freely across workers.
    std::vector<testbed::TestbedConfig> configs;
    for (const WorkloadSpec &spec : workloads) {
        for (double ratio : ratios) {
            configs.push_back(pointConfig(
                spec, testbed::SystemMode::ClientServer, ratio));
            configs.push_back(pointConfig(
                spec, testbed::SystemMode::PmnetSwitch, ratio));
        }
    }
    // Streaming histograms: millions of samples across the grid.
    for (auto &config : configs)
        config.statsMode = StatsMode::Streaming;
    auto results = testbed::runSweep(std::move(configs), warmup, measure);

    std::vector<double> mean_speedup(ratios.size(), 0.0);
    std::size_t at = 0;
    for (const WorkloadSpec &spec : workloads) {
        std::vector<std::string> row{spec.name};
        double base100 = 0;
        for (std::size_t r = 0; r < ratios.size(); r++) {
            double base = results[at++].opsPerSecond;
            double fast = results[at++].opsPerSecond;
            double speedup = fast / base;
            mean_speedup[r] += speedup;
            row.push_back(TablePrinter::fmt(speedup) + "x");
            if (r == 0)
                base100 = base;

            json.beginRow();
            json.field("workload", spec.name);
            json.field("update_ratio", ratios[r]);
            json.field("baseline_ops", base);
            json.field("pmnet_ops", fast);
            json.field("speedup", speedup);
        }
        row.push_back(TablePrinter::fmt(base100, 0));
        table.addRow(row);
    }

    std::vector<std::string> avg{"MEAN"};
    for (std::size_t r = 0; r < ratios.size(); r++)
        avg.push_back(TablePrinter::fmt(mean_speedup[r] /
                                        static_cast<double>(
                                            workloads.size())) +
                      "x");
    avg.push_back("-");
    table.addRow(avg);
    table.print();
    std::printf("\n(paper: 4.31x mean at 100%% updates)\n");
    return 0;
}
