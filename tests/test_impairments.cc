/**
 * @file
 * The adversarial link-condition engine and scenario DSL
 * (DESIGN.md section 15):
 *
 *  - net::Impairment grammar: token parsing, error reporting, and the
 *    describeImpairment() round trip.
 *  - per-knob link behaviour: extra delay, bounded jitter,
 *    duplication, reordering holds, rate-based corruption, bandwidth
 *    throttling and Gilbert–Elliott burst loss, each driven by the
 *    link's deterministic RNG.
 *  - the fault::Scenario table: row parsing and the built-in
 *    adversarial matrix swept against the P1–P3 invariant checker.
 *
 * The scenario sweeps carry the `scenario` ctest label (see
 * tests/CMakeLists.txt) so CI's sanitizer legs can select them.
 */

#include <gtest/gtest.h>

#include "fault/scenario.h"
#include "net/impairment.h"
#include "net/link.h"
#include "net/packet.h"

namespace pmnet {
namespace {

using net::Impairment;
using net::Link;
using net::LinkConfig;
using net::PacketPtr;
using net::PacketType;

// ------------------------------------------------------ DSL parsing

Impairment
parsed(const std::string &tokens)
{
    Impairment imp;
    std::string error;
    EXPECT_TRUE(net::parseImpairment(tokens, &imp, &error)) << error;
    return imp;
}

TEST(ImpairmentParse, EveryTokenKind)
{
    Impairment imp = parsed(
        "delay 3us jitter 2us dup 5% corrupt 2% reorder 10% 25us "
        "rate 1.5");
    EXPECT_EQ(imp.extraDelay, microseconds(3));
    EXPECT_EQ(imp.jitter, microseconds(2));
    EXPECT_DOUBLE_EQ(imp.duplicateRate, 0.05);
    EXPECT_DOUBLE_EQ(imp.corruptRate, 0.02);
    EXPECT_DOUBLE_EQ(imp.reorderRate, 0.10);
    EXPECT_EQ(imp.reorderDelay, microseconds(25));
    EXPECT_DOUBLE_EQ(imp.bandwidthGbps, 1.5);
    EXPECT_TRUE(imp.active());
    EXPECT_FALSE(imp.hasLoss());
}

TEST(ImpairmentParse, ProbabilityAndDurationForms)
{
    EXPECT_DOUBLE_EQ(parsed("dup 25%").duplicateRate, 0.25);
    EXPECT_DOUBLE_EQ(parsed("dup 0.25").duplicateRate, 0.25);
    EXPECT_EQ(parsed("delay 750ns").extraDelay, nanoseconds(750));
    EXPECT_EQ(parsed("delay 2ms").extraDelay, milliseconds(2));
}

TEST(ImpairmentParse, UniformLossIsDegenerateGilbertElliott)
{
    Impairment imp = parsed("loss 3%");
    EXPECT_TRUE(imp.hasLoss());
    EXPECT_DOUBLE_EQ(imp.geLossGood, 0.03);
    EXPECT_DOUBLE_EQ(imp.geLossBad, 0.03);
    Impairment direct = Impairment::uniformLoss(0.03);
    EXPECT_DOUBLE_EQ(direct.geLossGood, imp.geLossGood);
}

TEST(ImpairmentParse, GilbertElliottOptionalGoodLoss)
{
    Impairment three = parsed("ge 5% 25% 80%");
    EXPECT_DOUBLE_EQ(three.geGoodToBad, 0.05);
    EXPECT_DOUBLE_EQ(three.geBadToGood, 0.25);
    EXPECT_DOUBLE_EQ(three.geLossBad, 0.80);
    EXPECT_DOUBLE_EQ(three.geLossGood, 0.0);

    Impairment four = parsed("ge 5% 25% 80% 1%");
    EXPECT_DOUBLE_EQ(four.geLossGood, 0.01);
}

TEST(ImpairmentParse, RejectsMalformedInput)
{
    Impairment imp;
    std::string error;
    EXPECT_FALSE(net::parseImpairment("warble 3us", &imp, &error));
    EXPECT_FALSE(net::parseImpairment("delay", &imp, &error));
    EXPECT_FALSE(net::parseImpairment("delay 3", &imp, &error))
        << "durations need a unit";
    EXPECT_FALSE(net::parseImpairment("dup 150%", &imp, &error));
    EXPECT_FALSE(net::parseImpairment("dup 1.5", &imp, &error));
    EXPECT_FALSE(net::parseImpairment("reorder 10%", &imp, &error))
        << "reorder needs probability and hold duration";
    EXPECT_FALSE(net::parseImpairment("rate -2", &imp, &error));
    EXPECT_FALSE(net::parseImpairment("ge 5% 25%", &imp, &error));
}

TEST(ImpairmentParse, DescribeRoundTrips)
{
    const char *specs[] = {
        "delay 3us jitter 2us",  "dup 10%",
        "corrupt 3%",            "reorder 25% 40us",
        "rate 1.5",              "loss 3%",
        "ge 5% 25% 80%",         "ge 1% 25% 70% 2%",
        "delay 2us jitter 3us dup 5% corrupt 2%",
    };
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        Impairment imp = parsed(spec);
        std::string text = net::describeImpairment(imp);
        Impairment again = parsed(text);
        EXPECT_EQ(net::describeImpairment(again), text)
            << "describe() must be a fixed point of parse()";
    }
}

// ------------------------------------------------- link behaviour

class SinkNode : public net::Node
{
  public:
    using Node::Node;
    std::vector<PacketPtr> got;
    std::vector<Tick> at;

    void
    receive(PacketPtr pkt, int in_port) override
    {
        (void)in_port;
        got.push_back(std::move(pkt));
        at.push_back(now());
    }
};

struct LinkRig
{
    sim::Simulator sim;
    SinkNode a{sim, "a", 0};
    SinkNode b{sim, "b", 1};
    Link link;

    explicit LinkRig(LinkConfig config = tenGig())
        : link(sim, "l", a, b, config)
    {
    }

    static LinkConfig
    tenGig()
    {
        LinkConfig config;
        config.gbps = 10.0;
        config.propagation = 300;
        return config;
    }
};

PacketPtr
plain()
{
    return net::makePlainPacket(0, 1, Bytes(1204)); // 1250B on wire
}

TEST(LinkImpair, ExtraDelayShiftsArrival)
{
    LinkRig rig;
    Impairment imp;
    imp.extraDelay = microseconds(1);
    rig.link.setImpairment(rig.a, imp);

    rig.link.transmit(rig.a, plain());
    rig.sim.run();
    ASSERT_EQ(rig.b.got.size(), 1u);
    // 1000ns serialization + 300ns propagation + 1000ns extra.
    EXPECT_EQ(rig.b.at[0], 2300);
}

TEST(LinkImpair, JitterBoundedAndDeterministic)
{
    auto arrivals = []() {
        LinkRig rig;
        Impairment imp;
        imp.jitter = microseconds(2);
        rig.link.setImpairment(rig.a, imp);
        for (int i = 0; i < 32; i++)
            rig.link.transmit(rig.a, plain());
        rig.sim.run();
        return rig.b.at;
    };
    std::vector<Tick> first = arrivals();
    ASSERT_EQ(first.size(), 32u);
    bool spread = false;
    for (std::size_t i = 0; i < first.size(); i++) {
        // Base timing for packet i is (i+1)*1000 + 300; jitter may add
        // up to 2000ns on top, never subtract.
        Tick base = static_cast<Tick>(i + 1) * 1000 + 300;
        EXPECT_GE(first[i], base);
        EXPECT_LE(first[i], base + 2000);
        if (first[i] != base)
            spread = true;
    }
    EXPECT_TRUE(spread) << "32 draws should not all land on zero";
    EXPECT_EQ(arrivals(), first) << "same seed, same jitter sequence";
}

TEST(LinkImpair, DuplicationDeliversExtraCopyAndCounts)
{
    LinkRig rig;
    Impairment imp;
    imp.duplicateRate = 1.0;
    rig.link.setImpairment(rig.a, imp);

    for (int i = 0; i < 4; i++)
        rig.link.transmit(rig.a, plain());
    rig.sim.run();
    EXPECT_EQ(rig.b.got.size(), 8u);
    EXPECT_EQ(rig.link.duplicates(), 4u);
}

TEST(LinkImpair, ReorderHoldLetsLaterPacketOvertake)
{
    LinkRig rig;
    Impairment imp;
    imp.reorderRate = 1.0;
    imp.reorderDelay = microseconds(40);
    rig.link.setImpairment(rig.a, imp);

    rig.link.transmit(rig.a, plain());
    rig.link.setImpairment(rig.a, Impairment{});
    rig.link.transmit(rig.a, plain());
    rig.sim.run();

    ASSERT_EQ(rig.b.got.size(), 2u);
    EXPECT_EQ(rig.link.reorders(), 1u);
    // The held first packet (41300) lands after the clean second
    // (2300): genuine reordering, not just added latency.
    EXPECT_EQ(rig.b.at[0], 2300);
    EXPECT_EQ(rig.b.at[1], 41300);
}

TEST(LinkImpair, CorruptRateDamagesCopyNotOriginal)
{
    LinkRig rig;
    Impairment imp;
    imp.corruptRate = 1.0;
    rig.link.setImpairment(rig.a, imp);

    PacketPtr pkt = net::makePmnetPacket(0, 1, PacketType::UpdateReq,
                                         7, 3, Bytes(16));
    ASSERT_TRUE(pkt->verifyHash());
    for (int i = 0; i < 3; i++)
        rig.link.transmit(rig.a, pkt);
    rig.sim.run();

    ASSERT_EQ(rig.b.got.size(), 3u);
    EXPECT_EQ(rig.link.corruptions(), 3u);
    for (const PacketPtr &got : rig.b.got) {
        ASSERT_TRUE(got->isPmnet());
        EXPECT_FALSE(got->verifyHash());
    }
    EXPECT_TRUE(pkt->verifyHash()) << "sender's retry copy untouched";
}

TEST(LinkImpair, BandwidthThrottleStretchesSerialization)
{
    LinkRig rig;
    Impairment imp;
    imp.bandwidthGbps = 1.0; // native 10 Gbps
    rig.link.setImpairment(rig.a, imp);

    rig.link.transmit(rig.a, plain());
    // The reverse direction keeps the native rate.
    rig.link.transmit(rig.b, net::makePlainPacket(1, 0, Bytes(1204)));
    rig.sim.run();

    ASSERT_EQ(rig.b.got.size(), 1u);
    ASSERT_EQ(rig.a.got.size(), 1u);
    // 1250B at 1 Gbps = 10000ns serialization (+300 propagation).
    EXPECT_EQ(rig.b.at[0], 10300);
    EXPECT_EQ(rig.a.at[0], 1300);
}

TEST(LinkImpair, GilbertElliottBurstIsStateful)
{
    LinkRig rig;
    Impairment imp;
    // Deterministic chain: the first transmit is in the lossless Good
    // state, then the p=1 transition enters Bad where every packet is
    // lost (p=1 draws consume no randomness, so this is exact).
    imp.geGoodToBad = 1.0;
    imp.geBadToGood = 0.0;
    imp.geLossGood = 0.0;
    imp.geLossBad = 1.0;
    rig.link.setImpairment(rig.a, imp);

    for (int i = 0; i < 5; i++)
        rig.link.transmit(rig.a, plain());
    rig.sim.run();
    EXPECT_EQ(rig.b.got.size(), 1u) << "only the Good-state packet";
    EXPECT_EQ(rig.link.losses(), 4u);
}

TEST(LinkImpair, ScheduledWindowInstallsAndRestores)
{
    LinkRig rig;
    Impairment imp;
    imp.duplicateRate = 1.0;
    rig.sim.scheduleAt(microseconds(10),
                       [&] { rig.link.setImpairment(rig.a, imp); });
    rig.sim.scheduleAt(microseconds(20), [&] {
        rig.link.setImpairment(rig.a, Impairment{});
    });

    // Before, inside and after the window.
    rig.link.transmit(rig.a, plain());
    rig.sim.run(microseconds(15));
    rig.link.transmit(rig.a, plain());
    rig.sim.run(microseconds(30));
    rig.link.transmit(rig.a, plain());
    rig.sim.run();

    EXPECT_EQ(rig.b.got.size(), 4u) << "only the window packet doubled";
    EXPECT_EQ(rig.link.duplicates(), 1u);
}

// ----------------------------------------------- scenario DSL rows

TEST(ScenarioParse, FullRowWithExtras)
{
    fault::Scenario scenario;
    std::string error;
    ASSERT_TRUE(fault::parseScenario(
        "mix | server> corrupt 2%; client1< delay 1us | "
        "crash device0@450us/350us repl 2 updates 30 clients 2 keys 4 "
        "nocache at 50us for 900us",
        &scenario, &error))
        << error;
    EXPECT_EQ(scenario.name, "mix");
    ASSERT_EQ(scenario.links.size(), 2u);
    EXPECT_EQ(scenario.links[0].where,
              fault::FaultAction::Where::ServerLink);
    EXPECT_EQ(scenario.links[0].dir,
              fault::FaultAction::Dir::TowardServer);
    EXPECT_EQ(scenario.links[1].where,
              fault::FaultAction::Where::ClientLink);
    EXPECT_EQ(scenario.links[1].index, 1);
    EXPECT_EQ(scenario.links[1].dir,
              fault::FaultAction::Dir::TowardClient);
    ASSERT_EQ(scenario.crashes.size(), 1u);
    EXPECT_EQ(scenario.crashes[0].kind,
              fault::FaultAction::Kind::DevicePowerCut);
    EXPECT_EQ(scenario.crashes[0].at, microseconds(450));
    EXPECT_EQ(scenario.replication, 2u);
    EXPECT_EQ(scenario.updatesPerClient, 30);
    EXPECT_EQ(scenario.keysPerSession, 4);
    EXPECT_FALSE(scenario.cache);
    EXPECT_EQ(scenario.impairAt, microseconds(50));
    EXPECT_EQ(scenario.impairFor, microseconds(900));
}

TEST(ScenarioParse, RejectsMalformedRows)
{
    fault::Scenario scenario;
    std::string error;
    EXPECT_FALSE(fault::parseScenario("no pipes here", &scenario,
                                      &error));
    EXPECT_FALSE(fault::parseScenario("bad name | server loss 1% |",
                                      &scenario, &error));
    EXPECT_FALSE(fault::parseScenario("x | gateway loss 1% |",
                                      &scenario, &error))
        << "unknown link target";
    EXPECT_FALSE(fault::parseScenario("x | server |", &scenario,
                                      &error))
        << "a linkspec needs impairment tokens";
    EXPECT_FALSE(fault::parseScenario("x | server loss 1% | blorp",
                                      &scenario, &error));
    EXPECT_FALSE(fault::parseScenario(
        "x | client5 loss 1% | clients 2", &scenario, &error))
        << "client index out of range";
    EXPECT_FALSE(fault::parseScenario(
        "x | device1 loss 1% |", &scenario, &error))
        << "device index beyond replication degree";
    EXPECT_FALSE(fault::parseScenario(
        "x | server loss 1% | crash router@1us/1us", &scenario,
        &error));
}

TEST(ScenarioTable, CoversRequiredAdversaryClasses)
{
    const auto &table = fault::builtinScenarios();
    EXPECT_GE(table.size(), 10u);
    // The acceptance matrix: burst loss, reordering, duplication,
    // rate-based corruption, jitter and asymmetric bandwidth all
    // present by name.
    for (const char *name :
         {"ge-burst-loss", "reorder-window", "dup-updates",
          "corrupt-to-device", "corrupt-to-server", "delay-jitter",
          "asym-bandwidth", "uniform-loss"})
        EXPECT_NE(fault::findScenario(name), nullptr) << name;
    EXPECT_EQ(fault::findScenario("not-a-scenario"), nullptr);
}

TEST(ScenarioTable, PlanExpandsAllLinksAndCrashes)
{
    const fault::Scenario *scenario =
        fault::findScenario("uniform-loss");
    ASSERT_NE(scenario, nullptr);
    fault::FaultPlan plan = fault::scenarioPlan(*scenario);
    // `all` on a 2-client scenario: server link + both client links.
    EXPECT_EQ(plan.actions.size(), 3u);

    const fault::Scenario *crash =
        fault::findScenario("burst-loss-device-cut");
    ASSERT_NE(crash, nullptr);
    plan = fault::scenarioPlan(*crash);
    ASSERT_EQ(plan.actions.size(), 2u);
    EXPECT_EQ(plan.actions[0].kind, fault::FaultAction::Kind::Impair);
    EXPECT_EQ(plan.actions[1].kind,
              fault::FaultAction::Kind::DevicePowerCut);
}

// --------------------------------------- the swept CI matrix itself

TEST(ScenarioMatrix, EveryBuiltinRowHoldsP1P2P3)
{
    for (const fault::Scenario &scenario : fault::builtinScenarios()) {
        SCOPED_TRACE(scenario.spec);
        fault::InvariantReport report = fault::runScenario(scenario);
        EXPECT_TRUE(report.clean()) << report.text();
    }
}

TEST(ScenarioMatrix, SurvivesAlternateStoreBackend)
{
    // A slice of the matrix on a second KV backend: the invariants
    // must not depend on hashmap iteration accidents.
    for (const char *name : {"ge-burst-loss", "nightmare-mix"}) {
        SCOPED_TRACE(name);
        const fault::Scenario *scenario = fault::findScenario(name);
        ASSERT_NE(scenario, nullptr);
        fault::ScenarioRunOptions opts;
        opts.kind = kv::KvKind::BTree;
        fault::InvariantReport report =
            fault::runScenario(*scenario, opts);
        EXPECT_TRUE(report.clean()) << report.text();
    }
}

TEST(ScenarioMatrix, SeedChangesOutcomeNotVerdict)
{
    const fault::Scenario *scenario =
        fault::findScenario("ge-burst-loss");
    ASSERT_NE(scenario, nullptr);
    fault::ScenarioRunOptions opts;
    opts.seed = 1234;
    fault::InvariantReport report = fault::runScenario(*scenario, opts);
    EXPECT_TRUE(report.clean()) << report.text();
}

} // namespace
} // namespace pmnet
