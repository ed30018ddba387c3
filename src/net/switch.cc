#include "net/switch.h"

#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace pmnet::net {

int
ForwardingNode::routeFor(NodeId dst) const
{
    auto it = routes_.find(dst);
    if (it == routes_.end()) {
        unroutable_++;
        return -1;
    }
    return it->second;
}

void
ForwardingNode::forward(PacketPtr pkt)
{
    int port = routeFor(pkt->dst);
    if (port < 0) {
        debug("%s: no route to %u, dropping %s", name().c_str(), pkt->dst,
              describe(*pkt).c_str());
        return;
    }
    send(port, std::move(pkt));
}

void
BasicSwitch::receive(PacketPtr pkt, int in_port)
{
    (void)in_port;
    forwarded_++;
    if (recorder_ && pkt->isPmnet() &&
        (pkt->pmnet->type == PacketType::UpdateReq ||
         pkt->pmnet->type == PacketType::BypassReq))
        recorder_->stampAt(pkt->requestId, obs::Stamp::SwitchIngress,
                           now());
    schedule(forwardLatency_,
             [this, pkt = std::move(pkt)]() { forward(pkt); });
}

} // namespace pmnet::net
