#include "stack/host.h"

#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace pmnet::stack {

namespace {

/** Arrival checkpoint for @p pkt, if it has one. */
inline bool
arrivalStampFor(const net::Packet &pkt, obs::Stamp *stamp_out)
{
    if (!pkt.isPmnet())
        return false;
    switch (pkt.pmnet->type) {
      case net::PacketType::UpdateReq:
      case net::PacketType::BypassReq:
        *stamp_out = obs::Stamp::ServerRx;
        return true;
      case net::PacketType::PmnetAck:
      case net::PacketType::ServerAck:
      case net::PacketType::Response:
        *stamp_out = obs::Stamp::AckRx;
        return true;
      default:
        return false;
    }
}

} // namespace

Host::Host(sim::Simulator &simulator, std::string object_name,
           net::NodeId node_id, StackProfile profile)
    : Node(simulator, std::move(object_name), node_id), profile_(profile)
{
}

void
Host::appSend(std::vector<net::PacketPtr> pkts)
{
    if (!isUp())
        return;
    if (portCount() != 1)
        panic("%s: appSend requires a single-homed host (ports=%d)",
              name().c_str(), portCount());

    TickDelta offset = profile_.txBase;
    std::uint64_t epoch = epoch_;
    for (std::size_t i = 0; i < pkts.size(); i++) {
        if (i > 0)
            offset += profile_.txPerPacket;
        offset += static_cast<TickDelta>(
            profile_.txPerByte *
            static_cast<double>(pkts[i]->payload.size()));
        schedule(offset, [this, epoch, pkt = std::move(pkts[i])]() {
            if (epoch != epoch_ || !isUp())
                return;
            sent_++;
            if (recorder_ && pkt->isPmnet() &&
                (pkt->pmnet->type == net::PacketType::UpdateReq ||
                 pkt->pmnet->type == net::PacketType::BypassReq))
                recorder_->stampAt(pkt->requestId, obs::Stamp::ClientTx,
                                   now());
            send(0, pkt);
        });
    }
}

void
Host::receive(net::PacketPtr pkt, int in_port)
{
    (void)in_port;
    if (recorder_) {
        obs::Stamp stamp;
        if (arrivalStampFor(*pkt, &stamp))
            recorder_->stampAt(pkt->requestId, stamp, now());
    }
    TickDelta delay =
        profile_.rxBase +
        static_cast<TickDelta>(profile_.rxPerByte *
                               static_cast<double>(pkt->payload.size()));
    std::uint64_t epoch = epoch_;
    schedule(delay, [this, epoch, pkt = std::move(pkt)]() {
        if (epoch != epoch_ || !isUp())
            return;
        received_++;
        if (appReceive_)
            appReceive_(pkt);
    });
}

void
Host::onPowerFail()
{
    epoch_++;
    if (appPowerFail_)
        appPowerFail_();
}

void
Host::onPowerRestore()
{
    if (appPowerRestore_)
        appPowerRestore_();
}

} // namespace pmnet::stack
