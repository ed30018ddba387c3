/**
 * @file
 * Edge-case coverage for the smaller utility surfaces: logging
 * formatters, blob helpers, store-header validation, heap exhaustion,
 * link loss statistics, simulator misuse, and command-store
 * boundary semantics.
 */

#include <gtest/gtest.h>

#include "apps/command_store.h"
#include "apps/workloads.h"
#include "common/trace.h"
#include "common/logging.h"
#include "kv/blob.h"
#include "kv/hashmap.h"
#include "kv/rbtree.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "stack/host.h"

namespace pmnet {
namespace {

// ------------------------------------------------------------ logging

TEST(Logging, FormatMessage)
{
    EXPECT_EQ(formatMessage("x=%d s=%s", 42, "hi"), "x=42 s=hi");
    EXPECT_EQ(formatMessage("no args"), "no args");
    // Long output beyond any static buffer.
    std::string long_arg(5000, 'a');
    EXPECT_EQ(formatMessage("%s", long_arg.c_str()).size(), 5000u);
}

TEST(Logging, LevelGating)
{
    LogLevel original = logLevel();
    setLogLevel(LogLevel::Silent);
    warn("should not print");     // exercised for coverage, no crash
    inform("should not print");
    debug("should not print");
    setLogLevel(original);
}

// --------------------------------------------------------------- blob

TEST(Blob, WriteReadRoundTrip)
{
    pm::PmHeap heap(1 << 20);
    kv::BlobRef ref = kv::writeBlob(heap, std::string("hello"));
    EXPECT_EQ(kv::readBlobString(heap, ref), "hello");
    EXPECT_EQ(kv::readBlob(heap, ref), (Bytes{'h', 'e', 'l', 'l', 'o'}));
}

TEST(Blob, EmptyBlobHasAddress)
{
    pm::PmHeap heap(1 << 20);
    kv::BlobRef ref = kv::writeBlob(heap, Bytes{});
    EXPECT_FALSE(ref.null());
    EXPECT_EQ(ref.length, 0u);
    EXPECT_TRUE(kv::readBlob(heap, ref).empty());
}

TEST(Blob, CompareKeyOrdering)
{
    pm::PmHeap heap(1 << 20);
    kv::BlobRef ref = kv::writeBlob(heap, std::string("mmm"));
    EXPECT_LT(kv::compareKey(heap, "aaa", ref), 0);
    EXPECT_EQ(kv::compareKey(heap, "mmm", ref), 0);
    EXPECT_GT(kv::compareKey(heap, "zzz", ref), 0);
    EXPECT_LT(kv::compareKey(heap, "mm", ref), 0) << "prefix is smaller";
}

TEST(Blob, SizedBlobRoundTripAndFree)
{
    pm::PmHeap heap(1 << 20);
    Bytes payload(300, 7);
    pm::PmOffset off = kv::writeSizedBlob(heap, payload);
    EXPECT_EQ(kv::readSizedBlob(heap, off), payload);
    kv::freeSizedBlob(heap, off);
    // Freed space is reusable.
    pm::PmOffset again = kv::writeSizedBlob(heap, payload);
    EXPECT_EQ(again, off);
}

// -------------------------------------------------------- store base

TEST(StoreBaseDeath, OpeningWrongKindIsFatal)
{
    pm::PmHeap heap(1 << 20);
    kv::PmHashmap map(heap);
    pm::PmOffset header = map.headerOffset();
    EXPECT_DEATH(
        { kv::PmRBTree tree(heap, header); },
        "kind");
}

TEST(KvFactoryDeath, OpenGarbageHeaderIsFatal)
{
    pm::PmHeap heap(1 << 20);
    pm::PmOffset off = heap.alloc(64);
    heap.persistObj<std::uint64_t>(off, 0xDEADDEAD);
    EXPECT_DEATH({ auto s = kv::openKvStore(heap, off); },
                 "unknown kind");
}

// -------------------------------------------------------------- heap

TEST(PmHeapDeath, ExhaustionIsFatalNotUb)
{
    pm::PmHeap heap(64 * 1024);
    EXPECT_DEATH(
        {
            for (int i = 0; i < 10000; i++)
                heap.alloc(1024);
        },
        "out of memory");
}

TEST(PmHeap, MixedSizeFreeListsIndependent)
{
    pm::PmHeap heap(1 << 20);
    pm::PmOffset small = heap.alloc(32);
    pm::PmOffset big = heap.alloc(512);
    heap.free(small, 32);
    heap.free(big, 512);
    EXPECT_EQ(heap.alloc(512), big) << "size classes must not mix";
    EXPECT_EQ(heap.alloc(32), small);
}

TEST(PmHeap, BytesInUseTracksAllocFree)
{
    pm::PmHeap heap(1 << 20);
    std::uint64_t base = heap.bytesInUse();
    pm::PmOffset off = heap.alloc(100);
    EXPECT_GT(heap.bytesInUse(), base);
    heap.free(off, 100);
    EXPECT_EQ(heap.bytesInUse(), base);
}

// --------------------------------------------------------------- link

TEST(LinkLoss, RandomLossRateApproximatelyHonored)
{
    sim::Simulator sim;
    net::Topology topo(sim);
    auto &a = topo.addNode<stack::Host>("a", stack::StackProfile{});
    auto &b = topo.addNode<stack::Host>("b", stack::StackProfile{});
    net::LinkConfig config;
    config.lossSeed = 77;
    net::Link &link = topo.connect(a, b, config);
    link.setImpairment(a, net::Impairment::uniformLoss(0.3));
    topo.computeRoutes();

    int got = 0;
    b.setAppReceive([&](net::PacketPtr) { got++; });
    const int n = 2000;
    for (int i = 0; i < n; i++)
        a.send(0, net::makePlainPacket(a.id(), b.id(), Bytes(10)));
    sim.run();
    EXPECT_NEAR(static_cast<double>(link.losses()) / n, 0.3, 0.04);
    EXPECT_EQ(got + static_cast<int>(link.losses()), n);
}

// ---------------------------------------------------------- simulator

TEST(SimulatorDeath, SchedulingInThePastPanics)
{
    sim::Simulator sim;
    sim.schedule(100, []() {});
    sim.run();
    EXPECT_DEATH(sim.scheduleAt(50, []() {}), "in the past");
}

TEST(SimulatorDeath, NegativeDelayPanics)
{
    sim::Simulator sim;
    EXPECT_DEATH(sim.schedule(-1, []() {}), "negative delay");
}

// ------------------------------------------------------ command store

TEST(CommandStoreEdges, LrangeBoundsAndNegatives)
{
    pm::PmHeap heap(16ull << 20);
    apps::CommandStore store(heap, kv::KvKind::Hashmap);
    for (const char *item : {"a", "b", "c", "d"})
        store.execute(apps::Command{{"RPUSH", "l", item}}, 1);

    auto run = [&](const char *lo, const char *hi) {
        return store.execute(apps::Command{{"LRANGE", "l", lo, hi}}, 1)
            .value;
    };
    EXPECT_EQ(run("0", "-1"), "a\nb\nc\nd");
    EXPECT_EQ(run("-2", "-1"), "c\nd");
    EXPECT_EQ(run("1", "2"), "b\nc");
    EXPECT_EQ(run("2", "100"), "c\nd") << "stop clamps to length";
    EXPECT_EQ(run("3", "1"), "") << "empty range";
}

TEST(CommandStoreEdges, LpopOnMissingAndEmpty)
{
    pm::PmHeap heap(16ull << 20);
    apps::CommandStore store(heap, kv::KvKind::Hashmap);
    EXPECT_EQ(store.execute(apps::Command{{"LPOP", "none"}}, 1).status,
              apps::RespStatus::Nil);
    store.execute(apps::Command{{"RPUSH", "l", "only"}}, 1);
    store.execute(apps::Command{{"LPOP", "l"}}, 1);
    EXPECT_EQ(store.execute(apps::Command{{"LPOP", "l"}}, 1).status,
              apps::RespStatus::Nil);
}

TEST(CommandStoreEdges, EmptyValueSetGet)
{
    pm::PmHeap heap(16ull << 20);
    apps::CommandStore store(heap, kv::KvKind::Hashmap);
    EXPECT_EQ(store.execute(apps::Command{{"SET", "k", ""}}, 1).status,
              apps::RespStatus::Ok);
    auto got = store.execute(apps::Command{{"GET", "k"}}, 1);
    EXPECT_EQ(got.status, apps::RespStatus::Ok);
    EXPECT_EQ(got.value, "");
}

TEST(CommandStoreEdges, LocksArePerResource)
{
    pm::PmHeap heap(16ull << 20);
    apps::CommandStore store(heap, kv::KvKind::Hashmap);
    EXPECT_EQ(store.execute(apps::Command{{"LOCK", "r1"}}, 1).status,
              apps::RespStatus::Ok);
    EXPECT_EQ(store.execute(apps::Command{{"LOCK", "r2"}}, 2).status,
              apps::RespStatus::Ok)
        << "different resources don't contend";
}

// -------------------------------------------------------------- stats

TEST(StatsEdges, SinglePercentileSample)
{
    Histogram series;
    series.add(777);
    EXPECT_EQ(series.percentile(0), 777);
    EXPECT_EQ(series.percentile(50), 777);
    EXPECT_EQ(series.percentile(100), 777);
    EXPECT_EQ(series.min(), 777);
    EXPECT_EQ(series.max(), 777);
}

TEST(StatsEdges, CdfOnTinySeries)
{
    Histogram series;
    series.add(1);
    series.add(2);
    auto cdf = series.cdf(10);
    ASSERT_EQ(cdf.size(), 10u);
    EXPECT_EQ(cdf.front().first, 1);
    EXPECT_EQ(cdf.back().first, 2);
}

} // namespace
} // namespace pmnet

namespace pmnet {
namespace {

// ------------------------------------------------------- trace ring

TEST(TraceRing, KeepsLastNEvents)
{
    TraceRing ring(3);
    for (int i = 0; i < 7; i++)
        ring.record(i * 10, "e" + std::to_string(i));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.recorded(), 7u);
    std::vector<std::string> seen;
    ring.forEach([&](const TraceRing::Event &event) {
        seen.push_back(event.text);
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"e4", "e5", "e6"}));
}

TEST(TraceRing, OldestFirstBeforeWrap)
{
    TraceRing ring(8);
    ring.record(1, "a");
    ring.record(2, "b");
    std::vector<Tick> ticks;
    ring.forEach([&](const TraceRing::Event &event) {
        ticks.push_back(event.when);
    });
    EXPECT_EQ(ticks, (std::vector<Tick>{1, 2}));
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
}

// ------------------------------------------------ smembers + fanout

TEST(CommandStoreEdges, SmembersListsAll)
{
    pm::PmHeap heap(16ull << 20);
    apps::CommandStore store(heap, kv::KvKind::Hashmap);
    EXPECT_EQ(store.execute(apps::Command{{"SMEMBERS", "s"}}, 1).status,
              apps::RespStatus::Nil);
    store.execute(apps::Command{{"SADD", "s", "x"}}, 1);
    store.execute(apps::Command{{"SADD", "s", "y"}}, 1);
    auto got = store.execute(apps::Command{{"SMEMBERS", "s"}}, 1);
    EXPECT_EQ(got.status, apps::RespStatus::Ok);
    EXPECT_EQ(got.value, "x\ny");
    EXPECT_EQ(apps::classifyCommand("SMEMBERS"),
              apps::CommandClass::Read);
}

TEST(Workloads, RetwisFanoutReadsFollowersThenPushes)
{
    apps::RetwisConfig config;
    config.followerFanout = true;
    config.fanoutCap = 3;
    auto workload = apps::makeRetwisWorkload(config, 2);
    Rng rng(4);
    bool saw_fanout_post = false;
    for (int i = 0; i < 200 && !saw_fanout_post; i++) {
        auto txn = workload->nextTransaction(rng);
        if (txn.front().verb() != "SMEMBERS")
            continue;
        saw_fanout_post = true;
        int pushes = 0;
        for (const auto &cmd : txn)
            pushes += cmd.verb() == "LPUSH";
        EXPECT_GE(pushes, 2 + 3) << "own+global+fanout timelines";
    }
    EXPECT_TRUE(saw_fanout_post);
}

TEST(Workloads, TpccDeliveryStaysInCriticalSection)
{
    apps::TpccConfig config;
    config.newOrderWeight = 0;
    config.paymentWeight = 0;
    config.deliveryWeight = 1;
    auto workload = apps::makeTpccWorkload(config, 2);
    Rng rng(5);
    auto txn = workload->nextTransaction(rng);
    ASSERT_EQ(txn.size(), 4u);
    EXPECT_EQ(txn.front().verb(), "LOCK");
    EXPECT_EQ(txn.back().verb(), "UNLOCK");
    EXPECT_EQ(txn.front().args[1], txn.back().args[1]);
}

TEST(Workloads, TpccLockFractionStillNearPaperWithFullMix)
{
    apps::TpccConfig config; // default mix incl. delivery
    auto workload = apps::makeTpccWorkload(config, 2);
    Rng rng(6);
    int locks = 0, total = 0;
    for (int i = 0; i < 3000; i++) {
        for (const auto &cmd : workload->nextTransaction(rng)) {
            total++;
            locks += apps::classifyCommand(cmd.verb()) ==
                     apps::CommandClass::Sync;
        }
    }
    EXPECT_NEAR(static_cast<double>(locks) / total, 0.137, 0.05);
}

TEST(Workloads, TpccDeliveryExecutesCleanly)
{
    pm::PmHeap heap(32ull << 20);
    apps::CommandStore store(heap, kv::KvKind::Hashmap);
    apps::TpccConfig config;
    config.deliveryWeight = 1;
    config.newOrderWeight = 0;
    config.paymentWeight = 0;
    auto workload = apps::makeTpccWorkload(config, 3);
    Rng rng(7);
    workload->populate(store, rng);
    for (int i = 0; i < 50; i++)
        for (const auto &cmd : workload->nextTransaction(rng))
            EXPECT_NE(store.execute(cmd, 3).status,
                      apps::RespStatus::Error)
                << cmd.verb();
}

} // namespace
} // namespace pmnet
