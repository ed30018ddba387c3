/**
 * @file
 * The shared node-identity convention of gateway mode.
 *
 * The PMNet header's HashVal is a CRC-32 over (type, sessionId,
 * seqNum, src, dst) — the NodeIds are hashed but never serialized
 * (they are sim-only metadata in src/net/packet.h). Two processes can
 * therefore only agree on hashes if they agree on a NodeId
 * convention. Gateway mode fixes one:
 *
 *   0                     the bridge (never a packet endpoint)
 *   1                     the PMNet device inside pmnetd
 *   2                     the server inside pmnetd
 *   100 + sessionId       the client owning that session
 *
 * Both the daemon and any client reconstruct src/dst from the header
 * alone using these rules; the bytes on the wire stay exactly
 * Packet::serializePayload() — byte-identical to the sim codec
 * goldens, which the cross-validation tests pin.
 *
 * One consequence: the sim envelope's fragment fields are not on the
 * wire either, so gateway requests must fit one MTU payload
 * (single-fragment). ClientLib already numbers fragments per packet;
 * the gateway client simply enforces payload <= mtuPayload.
 */

#ifndef PMNET_GATEWAY_WIRE_H
#define PMNET_GATEWAY_WIRE_H

#include "net/packet.h"

namespace pmnet::gateway {

/** The bridge's own NodeId (never appears as src/dst of a packet). */
inline constexpr net::NodeId kBridgeNode = 0;

/** The single PMNet device inside the daemon. */
inline constexpr net::NodeId kDeviceNode = 1;

/** The server host inside the daemon. */
inline constexpr net::NodeId kServerNode = 2;

/** Client NodeIds start here; one per session. */
inline constexpr net::NodeId kClientNodeBase = 100;

/** NodeId of the client owning @p session_id. */
constexpr net::NodeId
clientNode(std::uint16_t session_id)
{
    return kClientNodeBase + session_id;
}

/** True when @p id is a client NodeId under the convention. */
constexpr bool
isClientNode(net::NodeId id)
{
    return id >= kClientNodeBase &&
           id < kClientNodeBase + 65536;
}

/** Session owning client NodeId @p id. @pre isClientNode(id). */
constexpr std::uint16_t
sessionOf(net::NodeId id)
{
    return static_cast<std::uint16_t>(id - kClientNodeBase);
}

/**
 * Deterministic request identity for the wall-clock flight recorder:
 * requestId is sim-only metadata, so the daemon synthesizes one from
 * the header fields that *are* on the wire. (session, seq) is unique
 * per in-flight request within a sequence space; the type bit keeps
 * an update and a bypass with equal seq apart.
 */
constexpr std::uint64_t
syntheticRequestId(const net::PmnetHeader &header)
{
    std::uint64_t update_space =
        header.type == net::PacketType::UpdateReq ? 1 : 0;
    return (update_space << 48) |
           (static_cast<std::uint64_t>(header.sessionId) << 32) |
           header.seqNum;
}

} // namespace pmnet::gateway

#endif // PMNET_GATEWAY_WIRE_H
