/**
 * @file
 * Sharded-fabric tests (DESIGN.md section 14): the consistent-hash
 * ShardMap, multi-chain topology assembly, key routing into per-shard
 * chains, shard health fail-over at the client library and the device
 * re-silver stream.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/key.h"
#include "fault/chain_repair.h"
#include "testbed/system.h"

namespace pmnet::testbed {
namespace {

TestbedConfig
fabricConfig(unsigned shards, int clients)
{
    TestbedConfig config;
    config.mode = SystemMode::PmnetSwitch;
    config.shards = shards;
    config.clientCount = clients;
    config.replicationDegree = 2;
    config.serverKind = ServerKind::CommandStore;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 500;
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

// ------------------------------------------------------- the ring

TEST(ShardMap, SingleShardOwnsEverything)
{
    ShardMap map(1);
    for (std::uint64_t h : {0ull, 1ull, 0x123456789abcdefull, ~0ull})
        EXPECT_EQ(map.ownerOf(h), 0u);
}

TEST(ShardMap, OwnerIsDeterministicAndInRange)
{
    ShardMap a(4);
    ShardMap b(4);
    Rng rng(99);
    for (int i = 0; i < 1000; i++) {
        std::uint64_t h = rng();
        unsigned owner = a.ownerOf(h);
        EXPECT_LT(owner, 4u);
        EXPECT_EQ(owner, b.ownerOf(h))
            << "two maps with the same shape must agree";
    }
}

TEST(ShardMap, VnodesSpreadTheKeySpaceEvenly)
{
    constexpr unsigned kShards = 8;
    ShardMap map(kShards);
    EXPECT_EQ(map.vnodeCount(), kShards * ShardMap::kDefaultVnodes);

    std::vector<int> load(kShards, 0);
    Rng rng(7);
    constexpr int kSamples = 80000;
    for (int i = 0; i < kSamples; i++)
        load[map.ownerOf(rng())]++;
    // With 64 vnodes/shard the arc lengths concentrate: every shard
    // must sit within 2x of the fair share (typically much closer).
    for (unsigned s = 0; s < kShards; s++) {
        EXPECT_GT(load[s], kSamples / (kShards * 2)) << "shard " << s;
        EXPECT_LT(load[s], kSamples / (kShards / 2)) << "shard " << s;
    }
}

TEST(ShardMap, GrowingTheRingMovesOnlyAFraction)
{
    ShardMap four(4);
    ShardMap five(5);
    Rng rng(11);
    constexpr int kSamples = 20000;
    int moved = 0;
    for (int i = 0; i < kSamples; i++) {
        std::uint64_t h = rng();
        if (four.ownerOf(h) != five.ownerOf(h))
            moved++;
    }
    // Consistent hashing moves ~1/5 of the keys to the new shard;
    // naive mod-N hashing would reshuffle ~4/5.
    EXPECT_LT(moved, kSamples / 2);
    EXPECT_GT(moved, kSamples / 20) << "the new shard must own keys";
}

TEST(ShardMap, HealthTransitions)
{
    ShardMap map(3);
    EXPECT_TRUE(map.allHealthy());
    for (unsigned s = 0; s < 3; s++)
        EXPECT_EQ(map.health(s), ShardMap::Health::Healthy);

    map.setHealth(1, ShardMap::Health::Failed);
    EXPECT_FALSE(map.allHealthy());
    EXPECT_EQ(map.health(1), ShardMap::Health::Failed);
    EXPECT_EQ(map.health(0), ShardMap::Health::Healthy);

    map.setHealth(1, ShardMap::Health::Resilvering);
    EXPECT_EQ(map.health(1), ShardMap::Health::Resilvering);
    EXPECT_FALSE(map.allHealthy());

    map.setHealth(1, ShardMap::Health::Healthy);
    EXPECT_TRUE(map.allHealthy());
}

// ------------------------------------------------ topology assembly

TEST(FabricBuild, ShardedTopologyShape)
{
    Testbed bed(fabricConfig(4, 2));
    EXPECT_EQ(bed.shardCount(), 4u);
    ASSERT_NE(bed.shardMap(), nullptr);
    EXPECT_EQ(bed.shardMap()->shardCount(), 4u);
    EXPECT_EQ(bed.deviceCount(), 8u) << "4 chains of R=2";
    for (unsigned s = 0; s < 4; s++) {
        EXPECT_EQ(bed.shardDeviceCount(s), 2u);
        EXPECT_NE(bed.commandStore(s), nullptr);
    }
    // A distinct server host per shard.
    std::set<const stack::Host *> servers;
    for (unsigned s = 0; s < 4; s++)
        servers.insert(&bed.serverHost(s));
    EXPECT_EQ(servers.size(), 4u);
}

TEST(FabricBuild, SingleShardKeepsLegacyShape)
{
    Testbed bed(fabricConfig(1, 2));
    EXPECT_EQ(bed.shardCount(), 1u);
    EXPECT_EQ(bed.shardMap(), nullptr)
        << "no router object on the classic single-chain path";
    EXPECT_EQ(bed.deviceCount(), 2u);
}

TEST(FabricBuild, ShardedRequiresCommandStore)
{
    auto config = fabricConfig(2, 1);
    config.serverKind = ServerKind::Ideal;
    EXPECT_DEATH({ Testbed bed(std::move(config)); }, "shards");
}

// ------------------------------------------------------ key routing

TEST(FabricRouting, EveryChainCarriesItsOwnKeys)
{
    Testbed bed(fabricConfig(4, 8));
    auto results = bed.run(milliseconds(2), milliseconds(10));
    EXPECT_GT(results.opsPerSecond, 0.0);

    // A zipf-0.99 stream over 500 keys touches every shard; each
    // chain's head must have logged its own share and nothing must
    // have leaked onto a wrong chain: per-key, the owning shard's
    // store holds the latest value written by the drivers.
    std::uint64_t logged_total = 0;
    for (unsigned s = 0; s < 4; s++) {
        std::string prefix = "shard." + std::to_string(s);
        std::uint64_t logged =
            bed.metrics().value(prefix + ".device0.updatesLogged");
        EXPECT_GT(logged, 0u) << "shard " << s << " saw no traffic";
        for (std::size_t d = 0; d < bed.shardDeviceCount(s); d++)
            logged_total += bed.metrics().value(
                prefix + ".device" + std::to_string(d) +
                ".updatesLogged");
    }
    // Every update logs once per chain position (R=2), on its owning
    // shard's chain only.
    EXPECT_EQ(results.updatesLogged, logged_total);

    // Spot-check routing: GETs against the owning shard's store.
    int checked = 0;
    for (int k = 0; k < 500 && checked < 50; k++) {
        std::string key = "user" + std::to_string(k);
        unsigned owner = bed.shardMap()->ownerOf(hashKey(key));
        auto resp = bed.commandStore(owner)->execute(
            apps::Command{{"GET", key}}, 1);
        if (resp.status == apps::RespStatus::Ok)
            checked++;
    }
    EXPECT_EQ(checked, 50) << "owning shards must serve their keys";
}

TEST(FabricRouting, PerShardMetricsRegistered)
{
    Testbed bed(fabricConfig(2, 2));
    bed.run(milliseconds(1), milliseconds(5));
    // shards > 1 namespaces server/device metrics per shard.
    EXPECT_GT(bed.metrics().value("shard.0.device0.updatesLogged") +
                  bed.metrics().value("shard.1.device0.updatesLogged"),
              0u);
}

// ------------------------------------------------- health fail-over

TEST(FabricHealth, ClientsParkWhileShardDarkAndFlushAfter)
{
    auto config = fabricConfig(4, 6);
    Testbed bed(std::move(config));
    bed.startDrivers();
    bed.runFor(milliseconds(2));

    // Darken one shard: new requests for it park client-side instead
    // of feeding a black hole.
    bed.shardMap()->setHealth(2, ShardMap::Health::Failed);
    bed.runFor(milliseconds(4));
    std::uint64_t parked = 0, held = 0;
    for (std::size_t c = 0; c < bed.clientCount(); c++) {
        parked += bed.metrics().value(bed.clientPrefix(c) +
                                      ".shardParked");
        held += bed.metrics().value(bed.clientPrefix(c) + ".shardHeld");
    }
    EXPECT_GT(parked + held, 0u)
        << "a dark shard must throttle its clients";

    // Back to healthy: parked requests drain on the retry timer.
    bed.shardMap()->setHealth(2, ShardMap::Health::Healthy);
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    bed.runFor(milliseconds(20));
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        EXPECT_EQ(bed.clientLib(c).outstanding(), 0u)
            << "client " << c << " still has parked requests";
}

// ---------------------------------------------- the re-silver stream

TEST(FabricRepair, ResilverRebuildsAnEmptiedLog)
{
    Testbed bed(fabricConfig(2, 4));
    bed.run(milliseconds(1), milliseconds(8));

    auto &head = bed.shardDevice(0, 0);
    auto &tail = bed.shardDevice(0, 1);
    ASSERT_GT(tail.logStore().size(), 0u);

    // Swap the head unit: its log comes back empty.
    head.replaceUnit();
    EXPECT_EQ(head.logStore().size(), 0u);

    // Stream the surviving tail's log back into the head.
    tail.resilverTo(head.id());
    for (int round = 0; round < 200 && tail.resilverActive(); round++)
        bed.runFor(microseconds(500));
    EXPECT_FALSE(tail.resilverActive());

    // Every surviving entry must now be present in the head's log.
    std::uint64_t missing = 0;
    tail.logStore().forEach([&](const pm::LogEntry &entry) {
        if (head.logStore().lookup(entry.hashVal) == nullptr)
            missing++;
    });
    EXPECT_EQ(missing, 0u);
    EXPECT_GT(
        bed.metrics().value("shard.0.device1.resilverPushesSent"), 0u);
    // Slot collisions can overwrite an earlier re-logged entry, so
    // the counter bounds the live count from above.
    EXPECT_GE(bed.metrics().value("shard.0.device0.resilverLogged"),
              head.logStore().size());
    EXPECT_GT(bed.metrics().value("shard.0.device0.resilverLogged"),
              0u);
}

TEST(FabricRepair, CoordinatorDrivesShardBackToHealthy)
{
    Testbed bed(fabricConfig(2, 4));
    fault::ChainRepairCoordinator coordinator(bed);
    bed.run(milliseconds(1), milliseconds(8));

    auto &head = bed.shardDevice(1, 0);
    head.replaceUnit();
    bed.shardMap()->setHealth(1, ShardMap::Health::Resilvering);
    coordinator.beginRepair(1, 0);
    EXPECT_FALSE(coordinator.idle());

    int rounds = 0;
    while (!coordinator.poll() && rounds++ < 400)
        bed.runFor(microseconds(500));
    EXPECT_TRUE(coordinator.idle());
    EXPECT_EQ(coordinator.repairsCompleted(), 1u);
    EXPECT_GE(coordinator.streamsStarted(), 1u);
    EXPECT_EQ(bed.shardMap()->health(1), ShardMap::Health::Healthy);

    // Converged: the replacement holds every surviving entry.
    auto &peer = bed.shardDevice(1, 1);
    std::uint64_t missing = 0;
    peer.logStore().forEach([&](const pm::LogEntry &entry) {
        if (head.logStore().lookup(entry.hashVal) == nullptr)
            missing++;
    });
    EXPECT_EQ(missing, 0u);
}

} // namespace
} // namespace pmnet::testbed
