/**
 * @file
 * Unit and property tests of the observability layer (DESIGN.md
 * section 11): the Json document model, the metric registry, the
 * flight recorder's slab mechanics, and — the load-bearing property —
 * that the five-way latency breakdown of every traced request sums
 * tick-exactly to its measured end-to-end latency across the three
 * main topologies.
 */

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/snapshot.h"
#include "testbed/system.h"

namespace pmnet::obs {
namespace {

// ------------------------------------------------------------- Json

TEST(Json, KindsAndOrder)
{
    Json obj = Json::object();
    obj.set("b", std::uint64_t{2});
    obj.set("a", 1);
    obj.set("neg", std::int64_t{-3});
    obj.set("s", "x\"y\\z");
    Json arr = Json::array();
    arr.push(true);
    arr.push(Json());
    obj.set("arr", std::move(arr));

    // Insertion order is preserved; strings escape quote + backslash.
    EXPECT_EQ(obj.dump(JsonStyle::Compact),
              "{\"b\":2,\"a\":1,\"neg\":-3,\"s\":\"x\\\"y\\\\z\","
              "\"arr\":[true,null]}");

    // Overwrite keeps the original position.
    obj.set("b", 7);
    EXPECT_EQ(obj.find("b")->dump(), "7");
    EXPECT_EQ(obj.members().front().first, "b");
}

TEST(Json, PrettyEndsWithNewline)
{
    Json obj = Json::object();
    obj.set("k", 1);
    std::string text = obj.dump(JsonStyle::Pretty);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    EXPECT_NE(text.find("\"k\": 1"), std::string::npos);
}

// --------------------------------------------------------- registry

TEST(MetricRegistry, RegisterLookupReset)
{
    MetricRegistry reg;
    Counter external;
    external += 5;
    reg.attach("a.ext", external);
    Counter nested;
    nested += 3;
    reg.attach("a.b.nested", nested);

    reg.probe("a.probe", []() { return Json(std::uint64_t{42}); });

    EXPECT_EQ(reg.value("a.ext"), 5u);
    EXPECT_EQ(reg.value("a.b.nested"), 3u);
    // value() reads counters only: probes and absent paths read 0.
    EXPECT_EQ(reg.value("a.probe"), 0u);
    EXPECT_EQ(reg.value("a.absent"), 0u);
    EXPECT_TRUE(reg.contains("a.probe"));
    EXPECT_FALSE(reg.contains("a.absent"));

    // An attached counter is read live, not copied at registration.
    external += 1;
    EXPECT_EQ(reg.value("a.ext"), 6u);

    // Dotted paths nest in the snapshot.
    Json snap = reg.toJson();
    const Json *a = snap.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->find("ext")->dump(), "6");
    EXPECT_EQ(a->find("probe")->dump(), "42");
    ASSERT_NE(a->find("b"), nullptr);
    EXPECT_EQ(a->find("b")->find("nested")->dump(), "3");
}

TEST(MetricRegistry, CounterAdapterExpressions)
{
    // The expressions the components' counter holders rely on.
    Counter c;
    c++;
    ++c;
    c += 2;
    EXPECT_EQ(c, 4u);
    EXPECT_EQ(static_cast<unsigned long long>(c), 4ull);
    c = 9;
    EXPECT_EQ(c.get(), 9u);
}

// --------------------------------------------------------- snapshot

TEST(Snapshot, DottedPutNests)
{
    Snapshot snap;
    snap.put("run.mode", "pmnet-switch");
    snap.put("run.seed", std::uint64_t{42});
    snap.put("results", Json::object());
    std::string text = snap.toJson(JsonStyle::Compact);
    EXPECT_EQ(text,
              "{\"run\":{\"mode\":\"pmnet-switch\",\"seed\":42},"
              "\"results\":{}}");
}

// -------------------------------------------------- flight recorder

TEST(FlightRecorder, StampPoliciesAndFreeze)
{
    FlightRecorder rec(8);
    rec.begin(1, 1, 1, true, 100);
    rec.stampAt(1, Stamp::SwitchIngress, 200);
    rec.stampAt(1, Stamp::SwitchIngress, 250); // first-wins
    rec.stampAt(1, Stamp::AckRx, 300);
    rec.stampAt(1, Stamp::AckRx, 350);         // last-wins
    rec.complete(1, 400, true);
    rec.stampAt(1, Stamp::ServerRx, 500);      // frozen: dropped

    const RequestTrace *trace = rec.find(1);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->tick(Stamp::SwitchIngress), 200);
    EXPECT_EQ(trace->tick(Stamp::AckRx), 350);
    EXPECT_FALSE(trace->has(Stamp::ServerRx));
    EXPECT_TRUE(trace->completed);
    EXPECT_EQ(trace->endToEnd(), 300);
    EXPECT_EQ(trace->breakdown().total(), trace->endToEnd());
}

TEST(FlightRecorder, WrapAroundEvictsOldest)
{
    FlightRecorder rec(4);
    for (std::uint64_t id = 1; id <= 6; id++)
        rec.begin(id, 0, 0, true, static_cast<Tick>(id));
    EXPECT_EQ(rec.beginCount(), 6u);
    EXPECT_EQ(rec.evictions(), 2u);
    EXPECT_EQ(rec.find(1), nullptr); // evicted
    EXPECT_EQ(rec.find(2), nullptr); // evicted
    for (std::uint64_t id = 3; id <= 6; id++)
        EXPECT_NE(rec.find(id), nullptr) << id;

    // The index stays consistent after the backward-shift deletions:
    // stamping a live id still lands on its trace.
    rec.stampAt(5, Stamp::AckRx, 99);
    EXPECT_EQ(rec.find(5)->tick(Stamp::AckRx), 99);
}

TEST(FlightRecorder, DisabledAndInvalidIdsAreNoOps)
{
    FlightRecorder rec(4);
    rec.setEnabled(false);
    rec.begin(1, 0, 0, true, 10);
    rec.stampAt(1, Stamp::AckRx, 20);
    rec.complete(1, 30, false);
    EXPECT_EQ(rec.beginCount(), 0u);
    EXPECT_EQ(rec.completeCount(), 0u);
    EXPECT_EQ(rec.find(1), nullptr);

    rec.setEnabled(true);
    rec.begin(0, 0, 0, true, 10); // id 0 reserved
    EXPECT_EQ(rec.beginCount(), 0u);
    rec.stampAt(7, Stamp::AckRx, 20); // unknown id
    EXPECT_EQ(rec.find(7), nullptr);
}

TEST(FlightRecorder, AccumFoldsOnlyWhileAccumulating)
{
    FlightRecorder rec(8);
    rec.begin(1, 0, 0, true, 0);
    rec.complete(1, 100, false); // before the window: not folded
    rec.setAccumulating(true);
    rec.begin(2, 0, 0, true, 50);
    rec.stampAt(2, Stamp::AckRx, 120);
    rec.complete(2, 150, false);
    rec.setAccumulating(false);

    const FlightRecorder::Accum &accum = rec.accum();
    EXPECT_EQ(accum.count, 1u);
    EXPECT_EQ(accum.totalLatency, 100);
    EXPECT_EQ(accum.sums.total(), accum.totalLatency);

    Json summary = accum.toJson();
    EXPECT_EQ(summary.find("count")->dump(), "1");
    EXPECT_EQ(summary.find("total_ns")->dump(), "100");
}

// ------------------------------------ breakdown == end-to-end (prop)

testbed::TestbedConfig
tracedConfig(testbed::SystemMode mode)
{
    testbed::TestbedConfig config;
    config.mode = mode;
    config.clientCount = 2;
    config.observability = true;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 100;
        ycsb.updateRatio = 0.7; // mix updates and bypass reads
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

void
expectExactBreakdowns(testbed::Testbed &bed)
{
    FlightRecorder *rec = bed.flightRecorder();
    ASSERT_NE(rec, nullptr);
    std::uint64_t completed = 0;
    rec->forEach([&](const RequestTrace &trace) {
        if (!trace.completed)
            return;
        completed++;
        // The partition property: the five segments sum tick-exactly
        // to the measured end-to-end latency, for every request.
        EXPECT_EQ(trace.breakdown().total(), trace.endToEnd())
            << "request " << trace.requestId << " session "
            << trace.session << " seq " << trace.firstSeq;
    });
    EXPECT_GT(completed, 0u);
    EXPECT_GT(rec->completeCount(), 0u);
}

TEST(Breakdown, SumsToEndToEndClientServer)
{
    testbed::Testbed bed(
        tracedConfig(testbed::SystemMode::ClientServer));
    auto results = bed.run(milliseconds(1), milliseconds(3));
    expectExactBreakdowns(bed);
    EXPECT_GT(results.breakdown.count, 0u);
    EXPECT_EQ(results.breakdown.sums.total(),
              results.breakdown.totalLatency);
    // A baseline spends nothing in the persist domain.
    EXPECT_EQ(results.breakdown.sums.devicePersist, 0);
    EXPECT_GT(results.breakdown.sums.server, 0);
}

TEST(Breakdown, SumsToEndToEndPmnetSwitchReplicated)
{
    auto config = tracedConfig(testbed::SystemMode::PmnetSwitch);
    config.replicationDegree = 2;
    testbed::Testbed bed(config);
    auto results = bed.run(milliseconds(1), milliseconds(3));
    expectExactBreakdowns(bed);
    EXPECT_GT(results.breakdown.count, 0u);
    EXPECT_EQ(results.breakdown.sums.total(),
              results.breakdown.totalLatency);
    // Updates complete in-network: the persist segment must show up.
    EXPECT_GT(results.breakdown.sums.devicePersist, 0);
}

TEST(Breakdown, SumsToEndToEndPmnetNic)
{
    testbed::Testbed bed(tracedConfig(testbed::SystemMode::PmnetNic));
    auto results = bed.run(milliseconds(1), milliseconds(3));
    expectExactBreakdowns(bed);
    EXPECT_GT(results.breakdown.count, 0u);
    EXPECT_EQ(results.breakdown.sums.total(),
              results.breakdown.totalLatency);
}

// ----------------------------------------------- testbed integration

TEST(TestbedObs, RegistryCoversComponentsAndMatchesAdapters)
{
    auto config = tracedConfig(testbed::SystemMode::PmnetSwitch);
    testbed::Testbed bed(config);
    bed.run(milliseconds(1), milliseconds(2));

    MetricRegistry &reg = bed.metrics();
    EXPECT_TRUE(reg.contains("client0.updatesSent"));
    EXPECT_TRUE(reg.contains("client1.updatesSent"));
    EXPECT_TRUE(reg.contains("server.updatesApplied"));
    EXPECT_TRUE(reg.contains("device0.updatesLogged"));
    EXPECT_TRUE(reg.contains("device0.log.size"));
    EXPECT_TRUE(reg.contains("packetPool.allocated"));

    // The components' private counter holders and the registry read
    // the same storage.
    EXPECT_EQ(reg.value("server.updatesApplied"),
              bed.metrics().value("server.updatesApplied"));
    EXPECT_EQ(reg.value("device0.updatesLogged"),
              bed.metrics().value("device0.updatesLogged"));
    EXPECT_GT(reg.value("client0.updatesCompleted"), 0u);

    // RunResults serializes through the obs layer.
    auto results = bed.endMeasurement();
    Json run_json = results.toJson();
    ASSERT_NE(run_json.find("breakdown"), nullptr);
    ASSERT_NE(run_json.find("update_latency"), nullptr);
}

TEST(TestbedObs, RecorderOffByDefault)
{
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 1;
    testbed::Testbed bed(config);
    EXPECT_EQ(bed.flightRecorder(), nullptr);
    auto results = bed.run(milliseconds(1), milliseconds(1));
    EXPECT_EQ(results.breakdown.count, 0u);
    // Metrics register regardless.
    EXPECT_TRUE(bed.metrics().contains("server.updatesApplied"));
}

} // namespace
} // namespace pmnet::obs
