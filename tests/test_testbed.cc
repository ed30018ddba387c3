/**
 * @file
 * Unit tests of the testbed layer itself: configuration-to-system
 * mapping (profiles, modes, topology shapes), measurement-window
 * semantics, determinism, and the driver's lock-retry behaviour.
 */

#include <gtest/gtest.h>

#include "testbed/sweep.h"
#include "testbed/system.h"

namespace pmnet::testbed {
namespace {

TestbedConfig
tinyConfig(SystemMode mode)
{
    TestbedConfig config;
    config.mode = mode;
    config.clientCount = 1;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 100;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

// ----------------------------------------------------- configuration

TEST(Config, ModeNames)
{
    EXPECT_STREQ(systemModeName(SystemMode::ClientServer),
                 "client-server");
    EXPECT_STREQ(systemModeName(SystemMode::PmnetSwitch),
                 "pmnet-switch");
    EXPECT_STREQ(systemModeName(SystemMode::PmnetNic), "pmnet-nic");
    EXPECT_STREQ(systemModeName(SystemMode::ClientSideLogging),
                 "client-side-logging");
    EXPECT_STREQ(systemModeName(SystemMode::ServerSideLogging),
                 "server-side-logging");
}

TEST(Config, ProfileSelection)
{
    TestbedConfig config;
    // Default: kernel UDP profiles.
    EXPECT_EQ(config.clientProfile().txBase,
              stack::StackProfile::kernelClient().txBase);

    // TCP workload on the baseline -> TCP profiles + fatter dispatch.
    config.tcpWorkload = true;
    config.mode = SystemMode::ClientServer;
    EXPECT_EQ(config.clientProfile().txBase,
              stack::StackProfile::tcpClient().txBase);
    EXPECT_GT(config.dispatchLatency(), config.server.dispatchLatency);

    // Same workload through PMNet -> kernel UDP scaled by 1.09.
    config.mode = SystemMode::PmnetSwitch;
    EXPECT_NEAR(static_cast<double>(config.clientProfile().txBase),
                stack::StackProfile::kernelClient().txBase * 1.09,
                2.0);

    // VMA dominates.
    config.vmaStack = true;
    EXPECT_LT(config.clientProfile().txBase, microseconds(3));
    EXPECT_EQ(config.dispatchLatency(), microseconds(8.0));
}

TEST(Config, EffectiveStackScaleComposition)
{
    TestbedConfig config;
    config.tcpWorkload = true;
    config.mode = SystemMode::PmnetSwitch;
    EXPECT_NEAR(config.effectiveStackScale(), 1.09, 1e-9);
    config.mode = SystemMode::ClientServer;
    EXPECT_NEAR(config.effectiveStackScale(), 1.0, 1e-9);
}

// --------------------------------------------------- topology shapes

TEST(Build, DeviceCountPerMode)
{
    Testbed baseline(tinyConfig(SystemMode::ClientServer));
    EXPECT_EQ(baseline.deviceCount(), 0u);

    Testbed sw(tinyConfig(SystemMode::PmnetSwitch));
    EXPECT_EQ(sw.deviceCount(), 1u);

    auto repl = tinyConfig(SystemMode::PmnetSwitch);
    repl.replicationDegree = 3;
    Testbed chain(std::move(repl));
    EXPECT_EQ(chain.deviceCount(), 3u);

    auto nic = tinyConfig(SystemMode::PmnetNic);
    nic.replicationDegree = 3; // NIC placement is single-device
    Testbed nic_bed(std::move(nic));
    EXPECT_EQ(nic_bed.deviceCount(), 1u);
}

TEST(Build, CacheRequiresPmnetMode)
{
    auto config = tinyConfig(SystemMode::ClientServer);
    config.cacheEnabled = true;
    EXPECT_DEATH({ Testbed bed(std::move(config)); },
                 "cacheEnabled requires");
}

TEST(Build, InvalidConfigRejected)
{
    auto no_clients = tinyConfig(SystemMode::ClientServer);
    no_clients.clientCount = 0;
    EXPECT_DEATH({ Testbed bed(std::move(no_clients)); },
                 "clientCount");

    auto no_repl = tinyConfig(SystemMode::PmnetSwitch);
    no_repl.replicationDegree = 0;
    EXPECT_DEATH({ Testbed bed(std::move(no_repl)); },
                 "replicationDegree");
}

// ---------------------------------------------------- measurement

/** Two runs recorded the same latency sequence: the order-sensitive
 *  digest plus every summary statistic agree. */
void
expectSameLatencies(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.digest(), b.digest());
    ASSERT_EQ(a.count(), b.count());
    ASSERT_FALSE(a.empty());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.percentile(50), b.percentile(50));
    EXPECT_EQ(a.percentile(99), b.percentile(99));
}

TEST(Measurement, WarmupExcludedFromSeries)
{
    Testbed bed(tinyConfig(SystemMode::PmnetSwitch));
    auto results = bed.run(milliseconds(3), milliseconds(3));
    // The warmup completed many requests; the window only holds the
    // measured ones.
    EXPECT_GT(bed.totalCompleted(), results.allLatency.count());
    EXPECT_GT(results.allLatency.count(), 0u);
    EXPECT_GT(results.opsPerSecond, 0.0);
}

TEST(Measurement, DeterministicForSeed)
{
    auto mk = [](std::uint64_t seed) {
        auto config = tinyConfig(SystemMode::PmnetSwitch);
        config.clientCount = 4;
        config.seed = seed;
        Testbed bed(std::move(config));
        return bed.run(milliseconds(2), milliseconds(10));
    };
    auto a = mk(7);
    auto b = mk(7);
    auto c = mk(8);
    EXPECT_DOUBLE_EQ(a.opsPerSecond, b.opsPerSecond)
        << "same seed must reproduce exactly";
    expectSameLatencies(a.allLatency, b.allLatency);
    EXPECT_NE(a.allLatency.digest(), c.allLatency.digest())
        << "different seed must differ";
}

TEST(Sweep, ParallelRunMatchesSerialExactly)
{
    auto mk = []() {
        auto config = tinyConfig(SystemMode::PmnetSwitch);
        config.clientCount = 4;
        config.seed = 7;
        return config;
    };

    // Serial reference runs on the calling thread.
    RunResults serial_a, serial_b;
    {
        Testbed bed(mk());
        serial_a = bed.run(milliseconds(2), milliseconds(5));
    }
    {
        Testbed bed(mk());
        serial_b = bed.run(milliseconds(2), milliseconds(5));
    }

    // The same two configs through the harness, forced onto worker
    // threads (even on a single-core host).
    auto swept = runSweep({mk(), mk()}, milliseconds(2),
                          milliseconds(5), 2);
    ASSERT_EQ(swept.size(), 2u);

    for (const RunResults &par : swept) {
        EXPECT_DOUBLE_EQ(par.opsPerSecond, serial_a.opsPerSecond)
            << "sweep must not perturb a fixed-seed run";
        expectSameLatencies(par.allLatency, serial_a.allLatency);
        EXPECT_EQ(par.updatesLogged, serial_a.updatesLogged);
    }
    expectSameLatencies(serial_a.allLatency, serial_b.allLatency);
}

TEST(Sweep, ResultsAreOrderedByJob)
{
    // Distinguishable jobs: different client counts give different
    // throughput; results must land at their job's index.
    std::vector<TestbedConfig> configs;
    for (int clients : {1, 3}) {
        auto config = tinyConfig(SystemMode::PmnetSwitch);
        config.clientCount = clients;
        configs.push_back(std::move(config));
    }
    auto swept = runSweep(std::move(configs), milliseconds(1),
                          milliseconds(5), 2);
    ASSERT_EQ(swept.size(), 2u);
    EXPECT_GT(swept[1].opsPerSecond, swept[0].opsPerSecond);
}

TEST(Sweep, ThreadCountResolution)
{
    EXPECT_GE(sweepThreadCount(0), 1u);
    EXPECT_EQ(sweepThreadCount(5), 5u);
}

TEST(Measurement, IdealHandlerFasterThanRealStore)
{
    auto real = tinyConfig(SystemMode::ClientServer);
    Testbed real_bed(std::move(real));
    auto real_results = real_bed.run(milliseconds(2), milliseconds(8));

    auto ideal = tinyConfig(SystemMode::ClientServer);
    ideal.serverKind = ServerKind::Ideal;
    Testbed ideal_bed(std::move(ideal));
    auto ideal_results = ideal_bed.run(milliseconds(2),
                                       milliseconds(8));

    EXPECT_LT(ideal_results.updateLatency.mean(),
              real_results.updateLatency.mean());
}

TEST(Measurement, AppOverheadChargesBaselineOnly)
{
    auto plain = tinyConfig(SystemMode::ClientServer);
    Testbed plain_bed(std::move(plain));
    auto plain_results = plain_bed.run(milliseconds(2),
                                       milliseconds(8));

    auto heavy = tinyConfig(SystemMode::ClientServer);
    heavy.appOverhead = microseconds(25);
    Testbed heavy_bed(std::move(heavy));
    auto heavy_results = heavy_bed.run(milliseconds(2),
                                       milliseconds(8));

    EXPECT_NEAR(heavy_results.updateLatency.mean() -
                    plain_results.updateLatency.mean(),
                microseconds(25), microseconds(6));

    // Under PMNet the overhead is off the critical path.
    auto pm_heavy = tinyConfig(SystemMode::PmnetSwitch);
    pm_heavy.appOverhead = microseconds(25);
    Testbed pm_bed(std::move(pm_heavy));
    auto pm_results = pm_bed.run(milliseconds(2), milliseconds(8));
    EXPECT_LT(pm_results.updateLatency.mean(), microseconds(30));
}

TEST(Measurement, ServerReplicationDelaySlowsBaselineCommit)
{
    auto config = tinyConfig(SystemMode::ClientServer);
    config.serverReplicationCommitDelay = microseconds(40);
    Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(2), milliseconds(8));
    EXPECT_GT(results.updateLatency.mean(), microseconds(100));
}

// -------------------------------------------------------- the driver

TEST(Driver, LockConflictRetriesUntilAcquired)
{
    auto config = tinyConfig(SystemMode::PmnetSwitch);
    config.clientCount = 3;
    config.workload = [](std::uint16_t session) {
        apps::TpccConfig tpcc;
        tpcc.warehouses = 1;
        tpcc.districtsPerWarehouse = 1; // maximum contention
        return apps::makeTpccWorkload(tpcc, session);
    };
    Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(2), milliseconds(25));

    EXPECT_GT(results.lockConflicts, 0u);
    std::uint64_t txns = 0;
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        txns += bed.driver(c).completedTransactions();
    EXPECT_GT(txns, 10u) << "contention must not deadlock";
}

TEST(Driver, StopHaltsNewWork)
{
    Testbed bed(tinyConfig(SystemMode::PmnetSwitch));
    bed.startDrivers();
    auto &sim = bed.simulator();
    sim.run(sim.now() + milliseconds(2));
    bed.driver(0).stop();
    std::uint64_t at_stop = bed.driver(0).completedRequests();
    sim.run(sim.now() + milliseconds(5));
    EXPECT_LE(bed.driver(0).completedRequests(), at_stop + 2)
        << "at most the in-flight request finishes after stop";
}

TEST(Driver, FragmentedUpdatesFlowEndToEnd)
{
    auto config = tinyConfig(SystemMode::PmnetSwitch);
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 50;
        ycsb.valueSize = 4000; // ~3 MTU fragments per update
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(2), milliseconds(15));
    EXPECT_GT(results.allLatency.count(), 0u);
    // Values must be intact on the server.
    auto check = bed.commandStore()->execute(
        apps::Command{{"GET", "user1"}}, 1);
    EXPECT_EQ(check.status, apps::RespStatus::Ok);
    EXPECT_EQ(check.value.size(), 4000u);
}

} // namespace
} // namespace pmnet::testbed
