/**
 * @file
 * GatewayBridge — the sim/socket boundary node (DESIGN.md §17).
 *
 * The bridge is an ordinary net::Node wired into a tiny in-process
 * topology next to the unchanged PmnetDevice/ServerLib (daemon role)
 * or Host/ClientLib (client role). Packets the topology routes to an
 * external NodeId arrive at the bridge and leave the process as real
 * datagrams (Packet::serializePayloadInto -> Transport::send);
 * datagrams drained off the transport are parsed with the same codec
 * and injected into the topology as typed packets, with the sim-only
 * envelope (src/dst NodeIds, requestId) reconstructed from the
 * gateway/wire.h convention.
 *
 * The daemon bridge also runs the wall-clock flight-recorder backend:
 * a request's trace opens (ClientSend) when its datagram enters the
 * process and completes when the first covering ack/response leaves —
 * so the PR 5 five-way breakdown measures real in-daemon time.
 */

#ifndef PMNET_GATEWAY_BRIDGE_H
#define PMNET_GATEWAY_BRIDGE_H

#include <vector>

#include "gateway/transport.h"
#include "gateway/wire.h"
#include "net/link.h"
#include "net/node.h"
#include "obs/metric_registry.h"
#include "stack/stack_model.h"

namespace pmnet::obs {
class FlightRecorder;
}

namespace pmnet::gateway {

/** Zero modeled time: real sockets and CPUs replace the model. */
stack::StackProfile zeroProfile();

/** In-process hop: effectively instantaneous, never tail-drops. */
net::LinkConfig inProcessLink();

/** The sim/socket boundary node. */
class GatewayBridge : public net::Node
{
  public:
    /** Which side of the protocol this process implements. */
    enum class Role {
        Daemon, ///< pmnetd: peers are clients, learned per session
        Client, ///< pmnet_cli: the single peer is the daemon
    };

    GatewayBridge(sim::Simulator &simulator, std::string object_name,
                  Role role, Transport &transport);

    /** Fixed peer endpoint (Client role). */
    void setPeer(const Endpoint &endpoint) { peer_ = endpoint; }

    /**
     * Daemon role: the sessions the server's watermark table holds.
     * An ingress datagram naming a session at or past @p limit is
     * dropped and counted in sessionOutOfRange.
     */
    void setSessionLimit(std::uint32_t limit) { sessionLimit_ = limit; }

    /** Wall-clock recorder backend (Daemon role; nullptr detaches). */
    void setRecorder(obs::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /**
     * Egress: a packet the topology routed off-process. Serialized
     * and sent to the owning endpoint (Daemon: learned from the
     * session's last ingress datagram; Client: the fixed peer).
     */
    void receive(net::PacketPtr pkt, int in_port) override;

    /**
     * Ingress: one raw datagram off the transport. Parses the PMNet
     * payload, reconstructs the envelope per gateway/wire.h and
     * injects the packet into the topology at the current tick.
     * Call with the simulator already advanced to wall time.
     */
    void onDatagram(const Endpoint &from, const std::uint8_t *data,
                    std::size_t len);

    /** Last known endpoint of @p session (Daemon role). */
    Endpoint endpointOf(std::uint16_t session) const;

    /** Attach the bridge counters under "<prefix>.<name>". */
    void registerMetrics(obs::MetricRegistry &registry,
                         std::string_view prefix);

    /** @name Boundary counters
     *  @{
     */
    obs::Counter ingressPackets;
    obs::Counter egressPackets;
    obs::Counter parseErrors;       ///< undecodable ingress datagrams
    obs::Counter sessionOutOfRange; ///< ingress past the session limit
    obs::Counter unknownSession;    ///< egress with no learned endpoint
    obs::Counter nonPmnetDropped;   ///< egress without a PMNet header
    /** @} */

  private:
    Role role_;
    Transport &transport_;
    obs::FlightRecorder *recorder_ = nullptr;
    Endpoint peer_{};
    /** Every 16-bit session id until setSessionLimit. */
    std::uint32_t sessionLimit_ = 1u << 16;
    /** sessionId -> last ingress endpoint (Daemon role). */
    std::vector<Endpoint> sessionEndpoints_;
    Bytes txBuf_;
    Bytes rxBuf_;
};

} // namespace pmnet::gateway

#endif // PMNET_GATEWAY_BRIDGE_H
