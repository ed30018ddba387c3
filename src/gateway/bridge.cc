#include "gateway/bridge.h"

#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace pmnet::gateway {

using net::PacketPtr;
using net::PacketType;

stack::StackProfile
zeroProfile()
{
    return stack::StackProfile{0, 0, 0.0, 0, 0.0};
}

net::LinkConfig
inProcessLink()
{
    net::LinkConfig link;
    link.gbps = 1000.0;
    link.propagation = 1; // one tick keeps event ordering explicit
    link.queueBytes = 64 * 1024 * 1024;
    return link;
}

GatewayBridge::GatewayBridge(sim::Simulator &simulator,
                             std::string object_name, Role role,
                             Transport &transport)
    : Node(simulator, std::move(object_name), kBridgeNode), role_(role),
      transport_(transport)
{
}

Endpoint
GatewayBridge::endpointOf(std::uint16_t session) const
{
    if (session >= sessionEndpoints_.size())
        return {};
    return sessionEndpoints_[session];
}

void
GatewayBridge::receive(PacketPtr pkt, int in_port)
{
    (void)in_port;
    if (!pkt->isPmnet()) {
        nonPmnetDropped++;
        return;
    }

    Endpoint to = peer_;
    if (role_ == Role::Daemon) {
        // The destination NodeId names a client; its endpoint was
        // learned from that session's last ingress datagram. A replay
        // racing a restarted daemon (no endpoint learned yet) is
        // dropped here — the client's retry re-teaches the mapping.
        if (!isClientNode(pkt->dst)) {
            unknownSession++;
            return;
        }
        to = endpointOf(sessionOf(pkt->dst));
        if (!to.valid()) {
            unknownSession++;
            return;
        }

        if (recorder_ && pkt->requestId != 0) {
            PacketType type = pkt->pmnet->type;
            if (type == PacketType::PmnetAck ||
                type == PacketType::ServerAck ||
                type == PacketType::Response)
                recorder_->complete(pkt->requestId, now(),
                                    type == PacketType::PmnetAck);
        }
    }

    pkt->serializePayloadInto(txBuf_);
    transport_.send(to, txBuf_.data(), txBuf_.size());
    egressPackets++;
}

void
GatewayBridge::onDatagram(const Endpoint &from, const std::uint8_t *data,
                          std::size_t len)
{
    rxBuf_.assign(data, data + len);
    net::MutPacketPtr pkt = net::makePacket();
    if (!pkt->parsePayload(rxBuf_)) {
        parseErrors++;
        return;
    }
    const net::PmnetHeader &header = *pkt->pmnet;
    pkt->srcPort = net::kPmnetPortLow;
    pkt->dstPort = net::kPmnetPortLow;

    if (role_ == Role::Daemon) {
        // A session the server's watermark table cannot hold would be
        // logged and PMNet-ACKed by the device, then never applied:
        // drop it here.
        if (header.sessionId >= sessionLimit_) {
            sessionOutOfRange++;
            return;
        }
        // Requests travel client -> server; everything else a client
        // could send is also addressed to the server (the device taps
        // the path in between, exactly as in the sim topology).
        pkt->src = clientNode(header.sessionId);
        pkt->dst = kServerNode;
        std::size_t needed = header.sessionId + std::size_t{1};
        if (sessionEndpoints_.size() < needed)
            sessionEndpoints_.resize(needed);
        sessionEndpoints_[header.sessionId] = from;

        bool is_request = header.type == PacketType::UpdateReq ||
                          header.type == PacketType::BypassReq;
        if (is_request) {
            pkt->requestId = syntheticRequestId(header);
            if (recorder_)
                recorder_->begin(pkt->requestId, header.sessionId,
                                 header.seqNum,
                                 header.type != PacketType::BypassReq,
                                 now());
        }
    } else {
        // Control traffic travels daemon -> client. The PMNet early
        // ack is the only packet originated by the device; the rest
        // speak for the server.
        pkt->src = header.type == PacketType::PmnetAck ? kDeviceNode
                                                       : kServerNode;
        pkt->dst = clientNode(header.sessionId);
    }

    ingressPackets++;
    send(0, std::move(pkt));
}

void
GatewayBridge::registerMetrics(obs::MetricRegistry &registry,
                               std::string_view prefix)
{
    std::string base(prefix);
    registry.attach(base + ".ingressPackets", ingressPackets);
    registry.attach(base + ".egressPackets", egressPackets);
    registry.attach(base + ".parseErrors", parseErrors);
    registry.attach(base + ".sessionOutOfRange", sessionOutOfRange);
    registry.attach(base + ".unknownSession", unknownSession);
    registry.attach(base + ".nonPmnetDropped", nonPmnetDropped);
}

} // namespace pmnet::gateway
