/**
 * @file
 * Unit tests for the network substrate: PMNet header encoding, packet
 * integrity, link timing/queueing, switch forwarding and topology
 * route computation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/kv_protocol.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/switch.h"
#include "net/topology.h"
#include "testbed/system.h"

namespace pmnet::net {
namespace {

// A terminal node that records everything it receives.
class SinkNode : public Node
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

// ------------------------------------------------------------- header

TEST(PmnetHeader, SerializeParseRoundTrip)
{
    PmnetHeader header;
    header.type = PacketType::ServerAck;
    header.sessionId = 42;
    header.seqNum = 123456;
    header.hashVal = 0xCAFEBABE;

    Bytes wire;
    header.serialize(wire);
    EXPECT_EQ(wire.size(), PmnetHeader::kWireSize);

    ByteReader reader(wire);
    auto parsed = PmnetHeader::parse(reader);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, header);
}

TEST(PmnetHeader, ParseRejectsTruncation)
{
    Bytes wire = {1, 2, 3};
    ByteReader reader(wire);
    EXPECT_FALSE(PmnetHeader::parse(reader).has_value());
}

TEST(PmnetHeader, ParseRejectsUnknownType)
{
    // 10 is a retired type: the device has no handler for it.
    for (int type : {0, 10, 12, 99}) {
        Bytes wire(PmnetHeader::kWireSize, 0);
        wire[0] = static_cast<std::uint8_t>(type);
        ByteReader reader(wire);
        EXPECT_FALSE(PmnetHeader::parse(reader).has_value()) << type;
        PmnetHeader header;
        EXPECT_FALSE(PmnetHeader::parse(wire.data(), wire.size(), header))
            << type;
    }
}

TEST(PmnetHeader, GoldenWireBytes)
{
    // Pinned wire image: proves the serialized format cannot drift.
    PmnetHeader header;
    header.type = PacketType::ServerAck; // 4
    header.sessionId = 0x0102;
    header.seqNum = 0x0A0B0C0D;
    header.hashVal = 0xDEADBEEF;

    const Bytes expected = {0x04, 0x02, 0x01, 0x0D, 0x0C, 0x0B,
                            0x0A, 0xEF, 0xBE, 0xAD, 0xDE};
    Bytes wire;
    header.serialize(wire);
    EXPECT_EQ(wire, expected);

    PmnetHeader::WireBytes stack_wire = header.encode();
    EXPECT_TRUE(std::equal(stack_wire.begin(), stack_wire.end(),
                           expected.begin()));
}

TEST(PmnetHeader, RawParseMatchesReaderParse)
{
    PmnetHeader header;
    header.type = PacketType::Retrans;
    header.sessionId = 77;
    header.seqNum = 123456789;
    header.hashVal = 0x5A5A5A5A;
    PmnetHeader::WireBytes wire = header.encode();

    PmnetHeader raw_parsed;
    ASSERT_TRUE(
        PmnetHeader::parse(wire.data(), wire.size(), raw_parsed));
    EXPECT_EQ(raw_parsed, header);

    EXPECT_FALSE(
        PmnetHeader::parse(wire.data(), wire.size() - 1, raw_parsed));
}

TEST(PmnetHeader, GoldenHashValues)
{
    // Pinned against zlib.crc32 over the explicit little-endian field
    // layout (type u8, session u16, seq u32, src u32, dst u32). These
    // values must never change: HashVal is both the wire integrity
    // check and the device's log-store index, so a drift would break
    // cross-version interop (and silently remap every log slot).
    EXPECT_EQ(PmnetHeader::computeHash(PacketType::UpdateReq, 1, 2, 3, 4),
              0x1EF13752u);
    EXPECT_EQ(PmnetHeader::computeHash(PacketType::UpdateReq, 3, 77, 5, 9),
              0x896D0A24u);
    EXPECT_EQ(PmnetHeader::computeHash(PacketType::ServerAck, 0xFFFF,
                                       0xFFFFFFFF, 0, 0xFFFFFFFF),
              0x05581B00u);
    EXPECT_EQ(PmnetHeader::computeHash(PacketType::RecoveryPoll, 0, 0, 0,
                                       0),
              0x4CD20CFDu);
}

TEST(PmnetHeader, HashDependsOnAllFields)
{
    std::uint32_t base = PmnetHeader::computeHash(PacketType::UpdateReq,
                                                  1, 2, 3, 4);
    EXPECT_NE(base, PmnetHeader::computeHash(PacketType::BypassReq, 1, 2,
                                             3, 4));
    EXPECT_NE(base,
              PmnetHeader::computeHash(PacketType::UpdateReq, 9, 2, 3, 4));
    EXPECT_NE(base,
              PmnetHeader::computeHash(PacketType::UpdateReq, 1, 9, 3, 4));
    EXPECT_NE(base,
              PmnetHeader::computeHash(PacketType::UpdateReq, 1, 2, 9, 4));
    EXPECT_NE(base,
              PmnetHeader::computeHash(PacketType::UpdateReq, 1, 2, 3, 9));
}

// ------------------------------------------------------------- packet

TEST(Packet, MakePmnetPacketIsIntact)
{
    PacketPtr pkt = makePmnetPacket(5, 9, PacketType::UpdateReq, 3, 77,
                                    Bytes{1, 2, 3});
    EXPECT_TRUE(pkt->isPmnet());
    EXPECT_TRUE(pkt->verifyHash());
    EXPECT_TRUE(isPmnetPort(pkt->dstPort));
    EXPECT_EQ(pkt->payload, (Bytes{1, 2, 3}));
}

TEST(Packet, HashDetectsEndpointTampering)
{
    Packet pkt = *makePmnetPacket(5, 9, PacketType::UpdateReq, 3, 77,
                                  Bytes{1, 2, 3});
    pkt.dst = 10; // mis-delivered / spoofed destination
    EXPECT_FALSE(pkt.verifyHash());
}

TEST(Packet, WireSizeAccountsForHeaders)
{
    PacketPtr plain = makePlainPacket(1, 2, Bytes(100));
    EXPECT_EQ(plain->wireSize(), Packet::kEnvelopeBytes + 100);
    PacketPtr tagged = makePmnetPacket(1, 2, PacketType::UpdateReq, 0, 1,
                                       Bytes(100));
    EXPECT_EQ(tagged->wireSize(),
              Packet::kEnvelopeBytes + PmnetHeader::kWireSize + 100);
}

TEST(Packet, PayloadSerializeParseRoundTrip)
{
    PacketPtr pkt = makePmnetPacket(1, 2, PacketType::BypassReq, 7, 33,
                                    Bytes{9, 8, 7, 6});
    Bytes wire = pkt->serializePayload();

    Packet rebuilt;
    rebuilt.src = 1;
    rebuilt.dst = 2;
    ASSERT_TRUE(rebuilt.parsePayload(wire));
    EXPECT_EQ(rebuilt.pmnet->seqNum, 33u);
    EXPECT_EQ(rebuilt.payload, (Bytes{9, 8, 7, 6}));
    EXPECT_TRUE(rebuilt.verifyHash());
}

TEST(Packet, SerializeReservesExactSize)
{
    PacketPtr pkt = makePmnetPacket(1, 2, PacketType::UpdateReq, 7, 33,
                                    Bytes(100, 0xEE));
    Bytes wire = pkt->serializePayload();
    EXPECT_EQ(wire.size(), pkt->payloadWireSize());
    // One exact-size reserve, no growth reallocation.
    EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(Packet, RoundTripReusesBuffersWithoutReallocation)
{
    PacketPtr pkt = makePmnetPacket(1, 2, PacketType::UpdateReq, 7, 33,
                                    Bytes(200, 0xEE));

    Bytes wire;
    Packet rebuilt;
    rebuilt.src = 1;
    rebuilt.dst = 2;

    // First round-trip establishes buffer capacity...
    pkt->serializePayloadInto(wire);
    ASSERT_TRUE(rebuilt.parsePayload(wire));
    const std::uint8_t *wire_data = wire.data();
    std::size_t wire_cap = wire.capacity();
    const std::uint8_t *payload_data = rebuilt.payload.data();
    std::size_t payload_cap = rebuilt.payload.capacity();

    // ...and every subsequent round-trip must reuse it: same backing
    // stores, zero allocations at steady state.
    for (int i = 0; i < 8; i++) {
        pkt->serializePayloadInto(wire);
        ASSERT_TRUE(rebuilt.parsePayload(wire));
        EXPECT_EQ(wire.data(), wire_data);
        EXPECT_EQ(wire.capacity(), wire_cap);
        EXPECT_EQ(rebuilt.payload.data(), payload_data);
        EXPECT_EQ(rebuilt.payload.capacity(), payload_cap);
        EXPECT_TRUE(rebuilt.verifyHash());
        EXPECT_EQ(rebuilt.payload, pkt->payload);
    }
}

TEST(Packet, RefPacketCarriesReferencedHash)
{
    PacketPtr ref = makeRefPacket(2, 1, PacketType::ServerAck, 7, 33,
                                  0xABCD);
    EXPECT_EQ(ref->pmnet->hashVal, 0xABCDu);
}

// --------------------------------------------------------------- pool

TEST(PacketPool, ReusesReleasedPackets)
{
    PacketPool &pool = PacketPool::local();

    // The thread-local pool is shared with every preceding test, so
    // only deltas from a known point are meaningful: release a packet,
    // snapshot, and check that the next acquire reuses exactly it.
    Packet *raw;
    {
        MutPacketPtr pkt = pool.acquire();
        raw = pkt.get();
        pkt->payload.assign(64, 0xee);
    }
    obs::MetricRegistry reg;
    pool.registerMetrics(reg, "pool");
    std::uint64_t before_reused = reg.value("pool.reused");
    std::uint64_t before_released = reg.value("pool.released");
    MutPacketPtr again = pool.acquire();
    EXPECT_EQ(again.get(), raw) << "free-list should hand back the "
                                   "released packet";
    EXPECT_EQ(reg.value("pool.reused"), before_reused + 1);
    EXPECT_EQ(reg.value("pool.released"), before_released);
}

TEST(PacketPool, ReleasedStateDoesNotLeakIntoReuse)
{
    PacketPool &pool = PacketPool::local();
    {
        MutPacketPtr dirty = pool.acquire();
        dirty->src = 3;
        dirty->dst = 9;
        dirty->srcPort = 1234;
        dirty->dstPort = 4321;
        PmnetHeader h;
        h.type = PacketType::Retrans;
        h.sessionId = 77;
        h.seqNum = 88;
        h.hashVal = 99;
        dirty->pmnet = h;
        dirty->payload.assign(500, 0x5a);
        dirty->requestId = 424242;
        dirty->fragment = 3;
        dirty->fragmentCount = 4;
    }
    MutPacketPtr clean = pool.acquire();
    EXPECT_EQ(clean->src, kInvalidNode);
    EXPECT_EQ(clean->dst, kInvalidNode);
    EXPECT_EQ(clean->srcPort, 0);
    EXPECT_EQ(clean->dstPort, 0);
    EXPECT_FALSE(clean->pmnet.has_value());
    EXPECT_TRUE(clean->payload.empty());
    EXPECT_EQ(clean->requestId, 0u);
    EXPECT_EQ(clean->fragment, 0u);
    EXPECT_EQ(clean->fragmentCount, 1u);
}

TEST(PacketPool, BuildersDrawFromThePool)
{
    PacketPool &pool = PacketPool::local();
    { PacketPtr warm = makePmnetPacket(1, 2, PacketType::UpdateReq, 1,
                                       1, Bytes(10, 1)); }
    obs::MetricRegistry reg;
    pool.registerMetrics(reg, "pool");
    std::uint64_t before_reused = reg.value("pool.reused");
    {
        PacketPtr pkt = makeRefPacket(1, 2, PacketType::ServerAck, 1, 2,
                                      0xfeed);
        EXPECT_EQ(pkt->pmnet->hashVal, 0xfeedu);
    }
    EXPECT_GT(reg.value("pool.reused"), before_reused);
}

TEST(PacketPool, FuzzAllocReleaseCyclesStayPristine)
{
    PacketPool &pool = PacketPool::local();
    std::uint64_t rng = 0x123456789ull;
    auto next = [&rng]() {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    std::vector<MutPacketPtr> held;
    for (int cycle = 0; cycle < 5000; cycle++) {
        MutPacketPtr pkt = pool.acquire();

        // The pool must never leak a previous life's state.
        ASSERT_EQ(pkt->src, kInvalidNode);
        ASSERT_FALSE(pkt->pmnet.has_value());
        ASSERT_TRUE(pkt->payload.empty());
        ASSERT_EQ(pkt->requestId, 0u);

        // Dirty it with a random shape.
        pkt->src = static_cast<NodeId>(next() % 64);
        pkt->dst = static_cast<NodeId>(next() % 64);
        pkt->payload.assign(next() % 1500, static_cast<std::uint8_t>(
                                               next() & 0xff));
        pkt->requestId = next();
        if (next() % 2) {
            PmnetHeader h;
            h.type = PacketType::UpdateReq;
            h.seqNum = static_cast<std::uint32_t>(next());
            pkt->pmnet = h;
        }

        // Randomly hold some packets to interleave lifetimes.
        if (next() % 3 == 0)
            held.push_back(std::move(pkt));
        if (held.size() > 32)
            held.erase(held.begin(),
                       held.begin() + static_cast<long>(next() % 16));
    }
    held.clear();

    obs::MetricRegistry reg;
    pool.registerMetrics(reg, "pool");
    EXPECT_GT(reg.value("pool.reused"), 4000u)
        << "steady state should recycle";
}

TEST(PacketPool, PacketsSurvivePoolTrim)
{
    PacketPool &pool = PacketPool::local();
    MutPacketPtr pkt = pool.acquire();
    pkt->payload.assign(8, 0x11);
    pool.trim();
    EXPECT_EQ(pool.freeCount(), 0u);
    EXPECT_EQ(pkt->payload.size(), 8u); // outstanding packet untouched
}

// --------------------------------------------------------------- link

TEST(Link, DeliversWithSerializationAndPropagation)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    LinkConfig config;
    config.gbps = 10.0;
    config.propagation = 300;
    Link link(sim, "l", a, b, config);

    PacketPtr pkt = makePlainPacket(0, 1, Bytes(1204)); // 1250B on wire
    EXPECT_TRUE(link.transmit(a, pkt));
    sim.run();
    ASSERT_EQ(b.got.size(), 1u);
    // 1250B at 10 Gbps = 1000ns serialization + 300ns propagation.
    EXPECT_EQ(b.at[0], 1300);
}

TEST(Link, BackToBackPacketsSerializeSequentially)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    LinkConfig config;
    config.gbps = 10.0;
    config.propagation = 0;
    Link link(sim, "l", a, b, config);

    PacketPtr pkt = makePlainPacket(0, 1, Bytes(1204));
    link.transmit(a, pkt);
    link.transmit(a, pkt);
    sim.run();
    ASSERT_EQ(b.got.size(), 2u);
    EXPECT_EQ(b.at[0], 1000);
    EXPECT_EQ(b.at[1], 2000); // queued behind the first
}

TEST(Link, FullDuplexDirectionsIndependent)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    LinkConfig config;
    config.gbps = 10.0;
    config.propagation = 0;
    Link link(sim, "l", a, b, config);

    PacketPtr fwd = makePlainPacket(0, 1, Bytes(1204));
    PacketPtr rev = makePlainPacket(1, 0, Bytes(1204));
    link.transmit(a, fwd);
    link.transmit(b, rev);
    sim.run();
    ASSERT_EQ(a.got.size(), 1u);
    ASSERT_EQ(b.got.size(), 1u);
    EXPECT_EQ(a.at[0], 1000); // no cross-direction queueing
    EXPECT_EQ(b.at[0], 1000);
}

TEST(Link, QueueOverflowDrops)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    LinkConfig config;
    config.gbps = 10.0;
    config.queueBytes = 3000;
    Link link(sim, "l", a, b, config);

    PacketPtr pkt = makePlainPacket(0, 1, Bytes(1204)); // 1250B
    EXPECT_TRUE(link.transmit(a, pkt));
    EXPECT_TRUE(link.transmit(a, pkt));
    EXPECT_FALSE(link.transmit(a, pkt)); // 3750 > 3000
    EXPECT_EQ(link.drops(), 1u);
    sim.run();
    EXPECT_EQ(b.got.size(), 2u);
}

TEST(Link, DownNodeLosesPacket)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    Link link(sim, "l", a, b);

    b.powerFail();
    link.transmit(a, makePlainPacket(0, 1, Bytes(10)));
    sim.run();
    EXPECT_TRUE(b.got.empty());

    b.powerRestore();
    link.transmit(a, makePlainPacket(0, 1, Bytes(10)));
    sim.run();
    EXPECT_EQ(b.got.size(), 1u);
}

TEST(Link, BytesCarriedCounts)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    Link link(sim, "l", a, b);
    PacketPtr pkt = makePlainPacket(0, 1, Bytes(54)); // 100B on wire
    link.transmit(a, pkt);
    sim.run();
    EXPECT_EQ(link.bytesCarried(), 100u);
}

TEST(Link, CorruptNextDeliversDamagedCopy)
{
    sim::Simulator sim;
    SinkNode a(sim, "a", 0), b(sim, "b", 1);
    Link link(sim, "l", a, b);

    PacketPtr pkt = makePmnetPacket(0, 1, PacketType::UpdateReq, 7, 3,
                                    Bytes(16));
    ASSERT_TRUE(pkt->verifyHash());
    link.corruptNext(a, 1);
    link.transmit(a, pkt);
    link.transmit(a, pkt); // only the first is damaged
    sim.run();

    ASSERT_EQ(b.got.size(), 2u);
    EXPECT_EQ(link.corruptions(), 1u);
    // The damaged copy still parses (valid type) but fails the CRC.
    ASSERT_TRUE(b.got[0]->isPmnet());
    EXPECT_FALSE(b.got[0]->verifyHash());
    EXPECT_TRUE(b.got[1]->verifyHash());
    // The sender's original packet (kept for retries) is untouched.
    EXPECT_TRUE(pkt->verifyHash());
}

// ------------------------------------------------------------- switch

TEST(Switch, ForwardsByRoute)
{
    sim::Simulator sim;
    Topology topo(sim);
    auto &host_a = topo.addNode<SinkNode>("ha");
    auto &host_b = topo.addNode<SinkNode>("hb");
    auto &sw = topo.addNode<BasicSwitch>("sw");
    topo.connect(host_a, sw);
    topo.connect(host_b, sw);
    topo.computeRoutes();

    host_a.send(0, makePlainPacket(host_a.id(), host_b.id(), Bytes(10)));
    sim.run();
    ASSERT_EQ(host_b.got.size(), 1u);
    EXPECT_EQ(sw.packetsForwarded(), 1u);
}

TEST(Switch, UnroutableDropsAndCounts)
{
    sim::Simulator sim;
    Topology topo(sim);
    auto &host_a = topo.addNode<SinkNode>("ha");
    auto &sw = topo.addNode<BasicSwitch>("sw");
    topo.connect(host_a, sw);
    topo.computeRoutes();

    host_a.send(0, makePlainPacket(host_a.id(), 99, Bytes(10)));
    sim.run();
    EXPECT_EQ(sw.unroutable(), 1u);
}

TEST(Topology, MultiHopRoutes)
{
    sim::Simulator sim;
    Topology topo(sim);
    auto &host_a = topo.addNode<SinkNode>("ha");
    auto &sw1 = topo.addNode<BasicSwitch>("sw1");
    auto &sw2 = topo.addNode<BasicSwitch>("sw2");
    auto &host_b = topo.addNode<SinkNode>("hb");
    topo.connect(host_a, sw1);
    topo.connect(sw1, sw2);
    topo.connect(sw2, host_b);
    topo.computeRoutes();

    host_a.send(0, makePlainPacket(host_a.id(), host_b.id(), Bytes(10)));
    sim.run();
    ASSERT_EQ(host_b.got.size(), 1u);
    EXPECT_EQ(sw1.packetsForwarded(), 1u);
    EXPECT_EQ(sw2.packetsForwarded(), 1u);
}

TEST(Topology, RoutesBothDirections)
{
    sim::Simulator sim;
    Topology topo(sim);
    auto &host_a = topo.addNode<SinkNode>("ha");
    auto &sw = topo.addNode<BasicSwitch>("sw");
    auto &host_b = topo.addNode<SinkNode>("hb");
    topo.connect(host_a, sw);
    topo.connect(sw, host_b);
    topo.computeRoutes();

    host_a.send(0, makePlainPacket(host_a.id(), host_b.id(), Bytes(1)));
    host_b.send(0, makePlainPacket(host_b.id(), host_a.id(), Bytes(1)));
    sim.run();
    EXPECT_EQ(host_a.got.size(), 1u);
    EXPECT_EQ(host_b.got.size(), 1u);
}

TEST(Topology, NodeLookup)
{
    sim::Simulator sim;
    Topology topo(sim);
    auto &host_a = topo.addNode<SinkNode>("ha");
    EXPECT_EQ(&topo.node(host_a.id()), &host_a);
    EXPECT_EQ(topo.nodeCount(), 1u);
}

// --------------------- rate-based corruption against the full stack

namespace corrupt_rig {

testbed::TestbedConfig
oneClient()
{
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 1;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 16;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

void
fireUpdates(testbed::Testbed &bed, int count)
{
    auto &lib = bed.clientLib(0);
    lib.startSession();
    for (int i = 0; i < count; i++) {
        Bytes cmd = apps::encodeCommand(
            apps::Command{{"SET", "k" + std::to_string(i), "v"}});
        lib.sendUpdate(cmd, []() {});
    }
    auto &sim = bed.simulator();
    sim.run(sim.now() + microseconds(300));
}

} // namespace corrupt_rig

TEST(CorruptRate, ServerCountsEveryDamagedPacketAsHashRejected)
{
    // Sustained corruption on the switch->server hop: the device logs
    // and PMNet-ACKs each update, then the copy is damaged in flight.
    // Every damaged arrival must die on the server's CRC check and be
    // counted — never parsed, never applied.
    testbed::Testbed bed(corrupt_rig::oneClient());
    Link *link = bed.serverHost().linkAt(0);
    ASSERT_NE(link, nullptr);
    Impairment imp;
    imp.corruptRate = 1.0;
    link->setImpairment(link->peerOf(bed.serverHost()), imp);

    corrupt_rig::fireUpdates(bed, 6);

    EXPECT_GT(link->corruptions(), 0u);
    EXPECT_EQ(bed.metrics().value("server.hashRejected"), link->corruptions())
        << "every corrupted delivery rejected and counted, nothing "
           "else rejected";
    EXPECT_EQ(bed.metrics().value("server.updatesApplied"), 0u);
}

TEST(CorruptRate, DeviceCountsEveryDamagedPacketAsBypassBadHash)
{
    // Same fire aimed at the client->switch hop: the device's CRC
    // check is the first line of defence — damaged updates are
    // dropped outright (bypassBadHash), never logged, never
    // forwarded.
    testbed::Testbed bed(corrupt_rig::oneClient());
    Link *link = bed.clientHost(0).linkAt(0);
    ASSERT_NE(link, nullptr);
    Impairment imp;
    imp.corruptRate = 1.0;
    link->setImpairment(bed.clientHost(0), imp);

    corrupt_rig::fireUpdates(bed, 6);

    EXPECT_GT(link->corruptions(), 0u);
    EXPECT_EQ(bed.metrics().value("device0.bypassBadHash"), link->corruptions());
    EXPECT_EQ(bed.metrics().value("device0.updatesLogged"), 0u);
    EXPECT_EQ(bed.metrics().value("server.updatesApplied"), 0u)
        << "nothing corrupt may leak past the device";
}

TEST(CorruptRate, PartialRateLetsCleanPacketsThrough)
{
    // A 50% rate must damage some and pass the rest: the injected
    // count on the link equals the receiver's reject count exactly,
    // and clean packets still commit.
    testbed::Testbed bed(corrupt_rig::oneClient());
    Link *link = bed.serverHost().linkAt(0);
    Impairment imp;
    imp.corruptRate = 0.5;
    link->setImpairment(link->peerOf(bed.serverHost()), imp);

    corrupt_rig::fireUpdates(bed, 12);

    EXPECT_GT(link->corruptions(), 0u);
    EXPECT_EQ(bed.metrics().value("server.hashRejected"), link->corruptions());
    EXPECT_GT(bed.metrics().value("server.updatesApplied"), 0u);
}

} // namespace
} // namespace pmnet::net
