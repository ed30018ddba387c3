/**
 * @file
 * Fault-injection subsystem tests (DESIGN.md section 10):
 *
 *  - the exhaustive persist-boundary crash matrix over all six KV
 *    backends, with per-op and group-commit acks (zero invariant
 *    violations at every boundary);
 *  - PmHeap crash/staging-arena pinning: a crash discards
 *    staged-but-unfenced ranges, clears the boundary hook and bumps
 *    the crash epoch;
 *  - PmHashmap chain-shadow invalidation across a crash, swept over
 *    every boundary of an update on a warmed deep chain;
 *  - scripted testbed fault plans: server power-cut mid-burst with
 *    duplicate delivery, device replacement in a replication chain,
 *    loss bursts — all three PMNet safety properties must hold;
 *  - determinism: two runs of the same seeded plan produce
 *    byte-identical invariant reports and identical link counters.
 */

#include <gtest/gtest.h>

#include "fault/crash_matrix.h"
#include "fault/fault_plan.h"
#include "kv/hashmap.h"

namespace pmnet {
namespace {

using fault::CrashMatrixConfig;
using fault::CrashMatrixResult;
using fault::FaultAction;
using fault::FaultPlan;
using fault::FaultRunConfig;
using fault::FaultRunner;
using fault::InjectedCrash;
using fault::InvariantReport;
using fault::runCrashMatrix;

// ------------------------------------------------- crash matrix sweep

class CrashMatrixTest : public ::testing::TestWithParam<kv::KvKind>
{};

TEST_P(CrashMatrixTest, ExhaustiveBoundarySweepHoldsInvariants)
{
    CrashMatrixConfig config;
    config.kind = GetParam();
    config.seed = 7;
    config.opCount = 36;
    config.keyCount = 8;
    CrashMatrixResult result = runCrashMatrix(config);

    EXPECT_GT(result.boundaries, 0u);
    EXPECT_EQ(result.crashesInjected, result.boundaries);
    EXPECT_TRUE(result.report.clean()) << result.report.text();
}

TEST_P(CrashMatrixTest, SmokeCapSpreadsCrashesAcrossTheRange)
{
    CrashMatrixConfig config;
    config.kind = GetParam();
    config.seed = 3;
    config.opCount = 16;
    config.keyCount = 6;
    config.maxCrashes = 10;
    CrashMatrixResult result = runCrashMatrix(config);

    EXPECT_LE(result.crashesInjected, 10u);
    EXPECT_GT(result.crashesInjected, 0u);
    EXPECT_TRUE(result.report.clean()) << result.report.text();
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CrashMatrixTest,
    ::testing::Values(kv::KvKind::Hashmap, kv::KvKind::BTree,
                      kv::KvKind::CTree, kv::KvKind::RBTree,
                      kv::KvKind::SkipList, kv::KvKind::Blob),
    [](const ::testing::TestParamInfo<kv::KvKind> &param_info) {
        return std::string(kv::kvKindName(param_info.param));
    });

// ------------------------------------ group-commit crash matrix sweep

class GroupCommitMatrixTest : public ::testing::TestWithParam<kv::KvKind>
{};

TEST_P(GroupCommitMatrixTest, ExhaustiveSweepAtEpochBoundaries)
{
    CrashMatrixConfig config;
    config.kind = GetParam();
    config.seed = 7;
    config.opCount = 36;
    config.keyCount = 8;
    config.epochOps = 4;
    CrashMatrixResult result = runCrashMatrix(config);

    EXPECT_GT(result.boundaries, 0u);
    EXPECT_EQ(result.crashesInjected, result.boundaries);
    EXPECT_EQ(result.acksReleased, 36u)
        << "the drain close must release every deferred ack";
    // With a 4-op epoch most boundaries sit inside an open epoch, so
    // the sweep genuinely exercises applied-but-unacked rollback.
    EXPECT_GT(result.midEpochCrashes, 0u);
    EXPECT_GT(result.opsAbandoned, 0u);
    EXPECT_TRUE(result.report.clean()) << result.report.text();
}

TEST_P(GroupCommitMatrixTest, SingleOpEpochsDegenerateToPerOpFencing)
{
    // epochOps == 1 means every stage closes immediately: the sweep
    // must still hold with zero held acks at any boundary inside an
    // apply (the only mid-epoch window left is the batch fence).
    CrashMatrixConfig config;
    config.kind = GetParam();
    config.seed = 3;
    config.opCount = 16;
    config.keyCount = 6;
    config.epochOps = 1;
    config.maxCrashes = 12;
    CrashMatrixResult result = runCrashMatrix(config);

    EXPECT_LE(result.crashesInjected, 12u);
    EXPECT_GT(result.crashesInjected, 0u);
    EXPECT_EQ(result.epochsClosed, 16u);
    EXPECT_TRUE(result.report.clean()) << result.report.text();
}

TEST_P(GroupCommitMatrixTest, BatchFencesAreTheOnlyBoundariesAdded)
{
    // One recorded sequence swept in both ack modes. Every KV op
    // fences its own writes, so group commit adds only the batch
    // fences, one Fence and one FenceRetire per closed epoch, and
    // crashes there land between ops, where no count lags.
    CrashMatrixConfig config;
    config.kind = GetParam();
    config.seed = 5;
    config.opCount = 30;
    config.keyCount = 8;
    CrashMatrixResult per_op = runCrashMatrix(config);
    config.epochOps = 4;
    CrashMatrixResult grouped = runCrashMatrix(config);

    EXPECT_EQ(per_op.epochsClosed, 0u);
    EXPECT_EQ(grouped.epochsClosed, 8u) << "7 full epochs + the drain";
    EXPECT_EQ(grouped.boundaries,
              per_op.boundaries + 2 * grouped.epochsClosed);
    EXPECT_EQ(grouped.countLagObserved, per_op.countLagObserved);
    for (const CrashMatrixResult *result : {&per_op, &grouped}) {
        EXPECT_EQ(result->acksReleased, 30u);
        EXPECT_EQ(result->crashesInjected, result->boundaries);
        EXPECT_TRUE(result->report.clean()) << result->report.text();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GroupCommitMatrixTest,
    ::testing::Values(kv::KvKind::Hashmap, kv::KvKind::BTree,
                      kv::KvKind::CTree, kv::KvKind::RBTree,
                      kv::KvKind::SkipList, kv::KvKind::Blob),
    [](const ::testing::TestParamInfo<kv::KvKind> &param_info) {
        return std::string(kv::kvKindName(param_info.param));
    });

// --------------------------------------- PmHeap crash pinning tests

TEST(PmHeapCrashTest, CrashDiscardsStagedUnfencedRanges)
{
    pm::PmHeap heap(1 << 20);
    pm::PmOffset off = heap.alloc(64);

    const char fenced[8] = "fenced!";
    heap.write(off, fenced, sizeof(fenced));
    heap.flush(off, sizeof(fenced));
    heap.fence();

    // Staged (flushed) but unfenced: must not survive the crash even
    // though it sits in the staging arena.
    const char staged[8] = "staged!";
    heap.write(off, staged, sizeof(staged));
    heap.flush(off, sizeof(staged));

    // Written but never flushed, elsewhere: must not survive either.
    const char unflushed[8] = "nowhere";
    heap.write(off + 16, unflushed, sizeof(unflushed));

    heap.crash();

    char back[8] = {};
    heap.read(off, back, sizeof(back));
    EXPECT_STREQ(back, "fenced!");
    heap.read(off + 16, back, sizeof(back));
    EXPECT_STREQ(back, "");

    // The staging arena was reset: a fresh write/flush/fence round
    // persists exactly its own bytes.
    const char fresh[8] = "fresh!!";
    heap.write(off, fresh, sizeof(fresh));
    heap.flush(off, sizeof(fresh));
    heap.fence();
    heap.crash();
    heap.read(off, back, sizeof(back));
    EXPECT_STREQ(back, "fresh!!");
}

TEST(PmHeapCrashTest, BoundaryHookCountsAndCrashClearsIt)
{
    pm::PmHeap heap(1 << 20);
    pm::PmOffset off = heap.alloc(64);

    std::uint64_t flushes = 0, fences = 0, retires = 0;
    heap.setPersistBoundaryHook([&](pm::PersistBoundary b) {
        switch (b) {
          case pm::PersistBoundary::Flush: flushes++; break;
          case pm::PersistBoundary::Fence: fences++; break;
          case pm::PersistBoundary::FenceRetire: retires++; break;
        }
    });

    const char data[8] = "abcdefg";
    heap.write(off, data, sizeof(data));
    heap.flush(off, sizeof(data));
    EXPECT_EQ(flushes, 1u);
    heap.fence();
    EXPECT_EQ(fences, 1u);
    EXPECT_EQ(retires, 1u);

    // An empty fence still crosses both fence boundaries.
    heap.fence();
    EXPECT_EQ(fences, 2u);
    EXPECT_EQ(retires, 2u);

    EXPECT_EQ(heap.crashEpoch(), 0u);
    heap.crash();
    EXPECT_EQ(heap.crashEpoch(), 1u);

    // The dead machine runs no hooks: counters must not move.
    heap.write(off, data, sizeof(data));
    heap.flush(off, sizeof(data));
    heap.fence();
    EXPECT_EQ(flushes, 1u);
    EXPECT_EQ(fences, 2u);
}

// ------------------------------- hashmap chain-shadow invalidation

/**
 * Sweep every persist boundary of a value update on a warmed deep
 * chain: after the crash, the *same instance* must agree with a
 * freshly opened store for every key. Without the crash-epoch shadow
 * invalidation, a crash at the fence-retire of the valPtr swap leaves
 * the shadow pointing at the old blob and the instance serves a stale
 * value.
 */
TEST(HashmapShadowTest, ShadowInvalidatedAcrossCrash)
{
    const std::vector<std::string> keys = {"a", "b", "c", "d", "e", "f"};
    auto value = [](const std::string &text) {
        return Bytes(text.begin(), text.end());
    };

    auto build = [&](pm::PmHeap &heap) {
        // Two buckets: six keys force chains deep enough to shadow.
        auto map = std::make_unique<kv::PmHashmap>(heap, 1u);
        for (const std::string &k : keys)
            map->put(kv::asKey(k), value("old-" + k));
        // Warm the chain shadow on every bucket.
        for (const std::string &k : keys)
            map->get(kv::asKey(k));
        return map;
    };

    // Count the boundaries one update crosses.
    std::size_t boundaries = 0;
    {
        pm::PmHeap heap(1 << 20);
        auto map = build(heap);
        heap.setPersistBoundaryHook(
            [&boundaries](pm::PersistBoundary) { boundaries++; });
        map->put(kv::asKey("c"), value("new-c"));
    }
    ASSERT_GT(boundaries, 0u);

    for (std::size_t crash_at = 1; crash_at <= boundaries; crash_at++) {
        pm::PmHeap heap(1 << 20);
        auto map = build(heap);
        pm::PmOffset header = map->headerOffset();

        std::size_t seen = 0;
        heap.setPersistBoundaryHook(
            [&seen, crash_at](pm::PersistBoundary b) {
                if (++seen == crash_at)
                    throw InjectedCrash{b, crash_at};
            });
        bool crashed = false;
        try {
            map->put(kv::asKey("c"), value("new-c"));
        } catch (const InjectedCrash &) {
            crashed = true;
        }
        ASSERT_TRUE(crashed) << "boundary " << crash_at;
        heap.crash();

        auto reopened = kv::openKvStore(heap, header);
        for (const std::string &k : keys) {
            auto stale_risk = map->get(kv::asKey(k)); // same instance, old shadow
            auto truth = reopened->get(kv::asKey(k));
            ASSERT_TRUE(stale_risk.has_value()) << "boundary " << crash_at;
            ASSERT_TRUE(truth.has_value()) << "boundary " << crash_at;
            EXPECT_EQ(std::string(stale_risk->begin(), stale_risk->end()),
                      std::string(truth->begin(), truth->end()))
                << "boundary " << crash_at << " key " << k
                << ": surviving instance diverged from durable truth";
        }
    }
}

// ------------------------------------------- scripted testbed plans

FaultRunConfig
planConfig(unsigned replication = 1, bool cache = true)
{
    FaultRunConfig config;
    config.testbed.mode = testbed::SystemMode::PmnetSwitch;
    config.testbed.clientCount = 2;
    config.testbed.replicationDegree = replication;
    config.testbed.cacheEnabled = cache;
    config.testbed.storeKind = kv::KvKind::Hashmap;
    config.testbed.seed = 42;
    config.updatesPerClient = 30;
    config.keysPerSession = 8;
    return config;
}

TEST(FaultPlanTest, ServerPowerCutDuringBurstWithDuplicateDelivery)
{
    FaultPlan plan;
    plan.name = "server-power-cut";
    // Drop a few client-bound packets first: a PMNet-ACK loss makes
    // the client retransmit an already-logged (acked-at-device)
    // update — the duplicate-delivery case.
    plan.actions.push_back(
        {.kind = FaultAction::Kind::DropNext,
         .at = microseconds(120),
         .count = 3,
         .where = FaultAction::Where::DeviceClientSide});
    plan.actions.push_back({.kind = FaultAction::Kind::ServerPowerCut,
                            .at = microseconds(400),
                            .duration = microseconds(500)});

    FaultRunner runner(planConfig());
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();

    // The scenario actually exercised what it scripted: a recovery
    // replay and a duplicate of an already-persistent update.
    const obs::MetricRegistry &metrics = runner.testbed().metrics();
    EXPECT_GE(metrics.value("server.recoveries"), 1u);
    std::uint64_t duplicates =
        metrics.value("server.duplicatesDropped") +
        metrics.value("device0.updatesReAcked");
    EXPECT_GE(duplicates, 1u) << report.text();
    EXPECT_GE(report.counter("device-recovery-resent"), 1u)
        << report.text();
    EXPECT_EQ(report.counter("acked-total"), 60u);
}

TEST(FaultPlanTest, DeviceReplacementInReplicationChain)
{
    FaultPlan plan;
    plan.name = "chain-device-replace";
    plan.actions.push_back(
        {.kind = FaultAction::Kind::DeviceReplace,
         .at = microseconds(450),
         .where = FaultAction::Where::DeviceClientSide});

    FaultRunner runner(planConfig(/*replication=*/2, /*cache=*/false));
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.counter("acked-total"), 60u);
}

TEST(FaultPlanTest, LossBurstTowardServer)
{
    FaultPlan plan;
    plan.name = "loss-burst";
    plan.actions.push_back({.kind = FaultAction::Kind::Impair,
                            .at = microseconds(100),
                            .duration = microseconds(600),
                            .impair = net::Impairment::uniformLoss(0.25)});

    FaultRunner runner(planConfig());
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_GT(report.counter("link-losses"), 0u) << report.text();
}

TEST(FaultPlanTest, DeterministicReports)
{
    FaultPlan plan;
    plan.name = "determinism";
    plan.actions.push_back({.kind = FaultAction::Kind::Impair,
                            .at = microseconds(100),
                            .duration = microseconds(500),
                            .impair = net::Impairment::uniformLoss(0.3)});
    plan.actions.push_back({.kind = FaultAction::Kind::DropNext,
                            .at = microseconds(300),
                            .count = 2,
                            .towardServer = true});
    plan.actions.push_back({.kind = FaultAction::Kind::ServerPowerCut,
                            .at = microseconds(700),
                            .duration = microseconds(300)});

    FaultRunner first(planConfig());
    FaultRunner second(planConfig());
    const InvariantReport &a = first.run(plan);
    const InvariantReport &b = second.run(plan);

    EXPECT_TRUE(a.clean()) << a.text();
    EXPECT_EQ(a.text(), b.text());
    EXPECT_EQ(a.counter("link-losses"), b.counter("link-losses"));
    EXPECT_EQ(a.counter("link-drops"), b.counter("link-drops"));
}

// ------------------------------------ sharded-fabric chain repair

FaultRunConfig
shardedPlanConfig(kv::KvKind kind = kv::KvKind::Hashmap,
                  bool cache = false)
{
    FaultRunConfig config;
    config.testbed.mode = testbed::SystemMode::PmnetSwitch;
    config.testbed.shards = 2;
    config.testbed.clientCount = 2;
    config.testbed.replicationDegree = 2;
    config.testbed.cacheEnabled = cache;
    config.testbed.storeKind = kind;
    config.testbed.seed = 42;
    config.updatesPerClient = 30;
    config.keysPerSession = 8;
    // Short drain windows so the repair coordinator polls while log
    // entries are still live: the re-silver stream then races real
    // traffic instead of verifying an already-emptied log.
    config.drainWindow = microseconds(200);
    return config;
}

FaultAction
chainRepairAt(TickDelta at, TickDelta outage, int device,
              bool replace = true)
{
    FaultAction action;
    action.kind = FaultAction::Kind::ChainRepair;
    action.at = at;
    action.duration = outage;
    action.index = device;
    action.replace = replace;
    return action;
}

TEST(FaultPlanTest, ChainRepairReturnsShardToHealthy)
{
    // Swap shard 0's head mid-burst while its server is down: the
    // chain acks and buffers the burst (that is PMNet's whole deal),
    // so when the head dies the surviving tail holds live entries the
    // replacement lacks. Clients park while the shard is dark, the
    // coordinator streams the tail's log back into the replacement
    // until the shard is Healthy again, and the restored server is
    // re-fed from the rebuilt chain.
    FaultPlan plan;
    plan.name = "chain-repair-replace";
    FaultAction server_cut;
    server_cut.kind = FaultAction::Kind::ServerPowerCut;
    server_cut.at = microseconds(200);
    server_cut.duration = microseconds(1200);
    plan.actions.push_back(server_cut);
    plan.actions.push_back(
        chainRepairAt(microseconds(400), microseconds(250), 0));

    FaultRunner runner(shardedPlanConfig());
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.counter("acked-total"), 60u);
    EXPECT_EQ(report.counter("repairs-completed"), 1u) << report.text();
    EXPECT_GE(report.counter("resilver-streams"), 1u) << report.text();
    ASSERT_NE(runner.testbed().shardMap(), nullptr);
    EXPECT_TRUE(runner.testbed().shardMap()->allHealthy());
}

TEST(FaultPlanTest, ChainRepairPowerRestoreKeepsLog)
{
    // Power-restore variant: the unit comes back with its PM log
    // intact, so verification can pass without streaming. The cache
    // stays on to run the P3 cache audit across both shards.
    FaultPlan plan;
    plan.name = "chain-repair-restore";
    plan.actions.push_back(chainRepairAt(
        microseconds(400), microseconds(250), 0, /*replace=*/false));

    FaultRunner runner(shardedPlanConfig(kv::KvKind::Hashmap,
                                         /*cache=*/true));
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.counter("acked-total"), 60u);
    EXPECT_EQ(report.counter("repairs-completed"), 1u) << report.text();
    EXPECT_TRUE(runner.testbed().shardMap()->allHealthy());
}

TEST(FaultPlanTest, ChainRepairTailDeviceAndSecondShardUntouched)
{
    // Repair the chain *tail* of shard 1 (flat device index 3 in a
    // 2x2 fabric): the other shard must never notice.
    FaultPlan plan;
    plan.name = "chain-repair-tail";
    plan.actions.push_back(
        chainRepairAt(microseconds(400), microseconds(250), 3));

    FaultRunner runner(shardedPlanConfig());
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.counter("acked-total"), 60u);
    EXPECT_EQ(report.counter("repairs-completed"), 1u) << report.text();
}

TEST(FaultPlanTest, ChainRepairReplacesHeadWithServerUp)
{
    // Head replacement while the shard's server stays up and the
    // cache is off: the only plan that repairs a chain with live
    // server acks still flowing.
    FaultPlan plan;
    plan.name = "chain-repair-head";
    plan.actions.push_back(
        chainRepairAt(microseconds(400), microseconds(250), 0));

    FaultRunner runner(shardedPlanConfig());
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.counter("acked-total"), 60u);
    EXPECT_EQ(report.counter("repairs-completed"), 1u) << report.text();
}

/**
 * Shard-failure x repair-in-progress crash sweep: while shard 0's
 * replacement head is being re-silvered from the surviving tail,
 * power-cut the replacement itself and then the stream *source* at
 * staggered points inside the repair. The coordinator must wait out
 * each outage, restart interrupted streams (duplicates are
 * idempotent), and still converge — P1-P3 must hold for every KV
 * backend at every crash point.
 */
class ChainRepairMatrixTest : public ::testing::TestWithParam<kv::KvKind>
{};

TEST_P(ChainRepairMatrixTest, MidResilverCrashPointsHoldInvariants)
{
    // The shard's server is dark for the whole window, so the chain is
    // the only copy of the burst: the head swap at 650 us leaves the
    // tail holding live entries the replacement lacks, and the first
    // coordinator poll after it (200 us drain windows) starts a real
    // resilver stream at ~800 us. The sweep lands cuts before the
    // first stream and across its lifetime.
    const TickDelta crash_points[] = {microseconds(750),
                                      microseconds(850),
                                      microseconds(950)};
    for (TickDelta crash_at : crash_points) {
        for (int victim : {0, 1}) {
            FaultPlan plan;
            plan.name = "chain-repair-crash";
            FaultAction server_cut;
            server_cut.kind = FaultAction::Kind::ServerPowerCut;
            server_cut.at = microseconds(200);
            server_cut.duration = microseconds(1200);
            plan.actions.push_back(server_cut);
            plan.actions.push_back(
                chainRepairAt(microseconds(400), microseconds(250), 0));
            FaultAction cut;
            cut.kind = FaultAction::Kind::DevicePowerCut;
            cut.at = crash_at;
            cut.duration = microseconds(150);
            cut.index = victim;
            plan.actions.push_back(cut);

            FaultRunner runner(shardedPlanConfig(GetParam()));
            const InvariantReport &report = runner.run(plan);
            EXPECT_TRUE(report.clean())
                << "victim " << victim << " cut at " << crash_at << ": "
                << report.text();
            EXPECT_EQ(report.counter("acked-total"), 60u);
            EXPECT_EQ(report.counter("repairs-completed"), 1u)
                << "victim " << victim << " cut at " << crash_at << ": "
                << report.text();
            EXPECT_TRUE(runner.testbed().shardMap()->allHealthy());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ChainRepairMatrixTest,
    ::testing::Values(kv::KvKind::Hashmap, kv::KvKind::BTree,
                      kv::KvKind::CTree, kv::KvKind::RBTree,
                      kv::KvKind::SkipList, kv::KvKind::Blob),
    [](const ::testing::TestParamInfo<kv::KvKind> &param_info) {
        return std::string(kv::kvKindName(param_info.param));
    });

} // namespace
} // namespace pmnet
