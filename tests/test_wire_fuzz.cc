/**
 * @file
 * Wire-format robustness: every decoder must survive arbitrary bytes
 * (no crashes, no reads past the end — verified under ASan in the
 * sanitizer build) and round-trip what the encoders produce, even at
 * size extremes. A malformed packet must never take down the data
 * plane or the server.
 */

#include <gtest/gtest.h>

#include "apps/kv_protocol.h"
#include "common/rng.h"
#include "net/packet.h"
#include "net/topology.h"
#include "pmnet/device.h"

namespace pmnet {
namespace {

Bytes
randomBytes(Rng &rng, std::size_t max_len)
{
    Bytes out(rng.nextUInt(max_len + 1));
    for (auto &byte : out)
        byte = static_cast<std::uint8_t>(rng.nextUInt(256));
    return out;
}

TEST(WireFuzz, PmnetHeaderParseNeverCrashes)
{
    Rng rng(0x4845);
    for (int i = 0; i < 5000; i++) {
        Bytes junk = randomBytes(rng, 32);
        ByteReader reader(junk);
        auto header = net::PmnetHeader::parse(reader);
        if (header) {
            // Anything accepted must carry a known type
            // (1 = UpdateReq .. 11 = ResilverPush; 10 is retired).
            EXPECT_GE(static_cast<int>(header->type), 1);
            EXPECT_LE(static_cast<int>(header->type),
                      static_cast<int>(net::PacketType::ResilverPush));
            EXPECT_NE(static_cast<int>(header->type), 10);
        }
    }
}

TEST(WireFuzz, PacketPayloadParseNeverCrashes)
{
    Rng rng(0x504B);
    int accepted = 0;
    for (int i = 0; i < 5000; i++) {
        Bytes junk = randomBytes(rng, 200);
        net::Packet pkt;
        pkt.src = 1;
        pkt.dst = 2;
        accepted += pkt.parsePayload(junk);
    }
    // Random bytes occasionally form a syntactically valid header;
    // the hash check must reject essentially all of those.
    (void)accepted;
}

TEST(WireFuzz, CommandDecodeNeverCrashes)
{
    Rng rng(0x434D);
    for (int i = 0; i < 5000; i++) {
        Bytes junk = randomBytes(rng, 300);
        auto cmd = apps::decodeCommand(junk);
        if (cmd) {
            EXPECT_FALSE(cmd->args.empty());
        }
    }
}

TEST(WireFuzz, ResponseDecodeNeverCrashes)
{
    Rng rng(0x5253);
    for (int i = 0; i < 5000; i++) {
        Bytes junk = randomBytes(rng, 300);
        (void)apps::decodeResponse(junk);
    }
}

TEST(WireFuzz, TruncationsOfValidEncodingsRejectedCleanly)
{
    apps::Command cmd{{"SET", "some-key", std::string(500, 'v')}};
    Bytes full = apps::encodeCommand(cmd);
    for (std::size_t cut = 0; cut < full.size(); cut += 7) {
        Bytes truncated(full.begin(),
                        full.begin() + static_cast<long>(cut));
        EXPECT_FALSE(apps::decodeCommand(truncated).has_value())
            << "cut at " << cut;
    }
    // The full encoding still decodes.
    EXPECT_TRUE(apps::decodeCommand(full).has_value());
}

TEST(WireFuzz, CommandRoundTripExtremes)
{
    // Empty strings, long strings, many args, binary-ish content.
    apps::Command cmd;
    cmd.args = {"V", "", std::string(10000, 'x'),
                std::string("\x01\x7f \x62in", 6)};
    for (int i = 0; i < 60; i++)
        cmd.args.push_back("arg" + std::to_string(i));
    auto decoded = apps::decodeCommand(apps::encodeCommand(cmd));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->args, cmd.args);
}

TEST(WireFuzz, ResponseRoundTripExtremes)
{
    auto decoded = apps::decodeResponse(apps::encodeGetResponse(
        apps::RespStatus::Ok, std::string(200, 'k'),
        std::string(5000, 'v')));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->key.size(), 200u);
    EXPECT_EQ(decoded->value.size(), 5000u);
}

// ----------------------------------- ResilverPush unwrap robustness

namespace resilver_rig {

/** probe -- device -- probe, raw endpoints (same shape as
 *  test_device's rig) so fuzzed pushes can be injected directly. */
class ProbeNode : public net::Node
{
  public:
    using Node::Node;
    void
    receive(net::PacketPtr pkt, int in_port) override
    {
        (void)pkt;
        (void)in_port;
    }
};

struct Rig
{
    sim::Simulator sim;
    net::Topology topo{sim};
    obs::MetricRegistry metrics;
    ProbeNode *client = nullptr;
    pmnetdev::PmnetDevice *dev = nullptr;
    ProbeNode *server = nullptr;

    Rig()
    {
        client = &topo.addNode<ProbeNode>("client");
        dev = &topo.addNode<pmnetdev::PmnetDevice>("dev");
        server = &topo.addNode<ProbeNode>("server");
        topo.connect(*client, *dev);
        topo.connect(*dev, *server);
        topo.computeRoutes();
        dev->registerMetrics(metrics, "dev");
    }

    std::uint64_t
    stat(const std::string &name) const
    {
        return metrics.value("dev." + name);
    }

    /** A wrapped ResilverPush payload exactly as resilverPush builds
     *  it: envelope fields, then length-prefixed inner wire image. */
    Bytes
    wrapped(std::uint32_t seq) const
    {
        net::PacketPtr logged = net::makePmnetPacket(
            client->id(), server->id(), net::PacketType::UpdateReq, 1,
            seq, Bytes(40));
        Bytes out;
        ByteWriter writer(out);
        writer.writeU32(logged->src);
        writer.writeU32(logged->dst);
        writer.writeU16(logged->srcPort);
        writer.writeU16(logged->dstPort);
        writer.writeU64(logged->requestId);
        writer.writeU32(logged->fragment);
        writer.writeU32(logged->fragmentCount);
        Bytes inner = logged->serializePayload();
        writer.writeU32(static_cast<std::uint32_t>(inner.size()));
        writer.writeBytes(inner.data(), inner.size());
        return out;
    }

    void
    push(std::uint32_t seq, Bytes payload)
    {
        server->send(0, net::makePmnetPacket(
                            server->id(), dev->id(),
                            net::PacketType::ResilverPush, 1, seq,
                            std::move(payload)));
        sim.run();
    }
};

} // namespace resilver_rig

TEST(WireFuzz, ResilverPushValidWrapLogsEntry)
{
    resilver_rig::Rig rig;
    rig.push(7, rig.wrapped(7));
    EXPECT_EQ(rig.stat("resilverLogged"), 1u);
    EXPECT_EQ(rig.dev->logStore().size(), 1u);
}

TEST(WireFuzz, ResilverPushTruncationsRejectedNeverLogged)
{
    resilver_rig::Rig rig;
    Bytes full = rig.wrapped(9);
    std::uint32_t seq = 100;
    for (std::size_t cut = 0; cut < full.size(); cut += 3) {
        Bytes truncated(full.begin(),
                        full.begin() + static_cast<long>(cut));
        rig.push(seq++, std::move(truncated));
    }
    EXPECT_EQ(rig.dev->logStore().size(), 0u)
        << "no truncated push may reach the log";
    EXPECT_EQ(rig.stat("resilverSkipped"),
              rig.stat("resilverReceived"));
}

TEST(WireFuzz, ResilverPushBitFlipsNeverCrashOrSmuggle)
{
    // The push's own CRC covers only its header, so payload damage
    // reaches the unwrap path — exactly the surface a corrupting
    // link exercises. The inner packet's CRC is the last line of
    // defence: a flipped inner image must never be logged.
    resilver_rig::Rig rig;
    Bytes full = rig.wrapped(11);
    Rng rng(0x5246);
    std::uint32_t seq = 500;
    for (std::size_t pos = 0; pos < full.size(); pos++) {
        Bytes mutated = full;
        mutated[pos] ^=
            static_cast<std::uint8_t>(1 + rng.nextUInt(255));
        rig.push(seq++, std::move(mutated));
    }
    // Envelope-field flips (addresses, ports, requestId, fragment
    // metadata) are not integrity-covered, so a few may still
    // reconstruct a verifiable inner packet; header/payload flips of
    // the inner image must all die on its CRC or the length check.
    EXPECT_LE(rig.dev->logStore().size(), 24u);
}

TEST(WireFuzz, ResilverPushLengthFieldFuzzRejected)
{
    resilver_rig::Rig rig;
    Bytes full = rig.wrapped(13);
    // inner_len sits after src(4) dst(4) ports(2+2) requestId(8)
    // fragment(4+4) = offset 28.
    const std::size_t len_off = 28;
    Rng rng(0x4C46);
    std::uint32_t seq = 900;
    for (int i = 0; i < 64; i++) {
        Bytes mutated = full;
        std::uint32_t bogus = static_cast<std::uint32_t>(
            rng.nextUInt(0xFFFFFFFFull));
        for (int b = 0; b < 4; b++)
            mutated[len_off + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(bogus >> (8 * b));
        rig.push(seq++, std::move(mutated));
    }
    EXPECT_EQ(rig.dev->logStore().size(), 0u)
        << "a length-field mismatch must reject the push";
}

TEST(WireFuzz, MutatedValidPacketsNeverVerify)
{
    // Flip each byte of a valid serialized header: the CRC must catch
    // every single-byte corruption of the covered fields.
    Rng rng(0x4D55);
    net::PacketPtr pkt = net::makePmnetPacket(
        3, 4, net::PacketType::UpdateReq, 7, 42, Bytes(20));
    Bytes wire = pkt->serializePayload();
    for (std::size_t pos = 0; pos < net::PmnetHeader::kWireSize;
         pos++) {
        Bytes mutated = wire;
        mutated[pos] ^= static_cast<std::uint8_t>(
            1 + rng.nextUInt(255));
        net::Packet rebuilt;
        rebuilt.src = 3;
        rebuilt.dst = 4;
        if (rebuilt.parsePayload(mutated)) {
            EXPECT_FALSE(rebuilt.verifyHash())
                << "undetected corruption at byte " << pos;
        }
    }
}

} // namespace
} // namespace pmnet
