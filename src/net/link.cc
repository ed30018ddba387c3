#include "net/link.h"

#include <algorithm>

#include "common/logging.h"

namespace pmnet::net {

Link *
Node::linkAt(int port) const
{
    if (port < 0 || port >= portCount())
        panic("%s: bad port %d (have %d)", name().c_str(), port,
              portCount());
    return ports_[static_cast<std::size_t>(port)];
}

int
Node::attachLink(Link *link)
{
    ports_.push_back(link);
    return portCount() - 1;
}

void
Node::send(int port, PacketPtr pkt)
{
    if (!up_)
        return;
    linkAt(port)->transmit(*this, std::move(pkt));
}

void
Node::powerFail()
{
    up_ = false;
    onPowerFail();
}

void
Node::powerRestore()
{
    up_ = true;
    onPowerRestore();
}

Link::Link(sim::Simulator &simulator, std::string object_name, Node &end_a,
           Node &end_b, LinkConfig config)
    : SimObject(simulator, std::move(object_name)), config_(config),
      endA_(&end_a), endB_(&end_b)
{
    if (&end_a == &end_b)
        fatal("%s: cannot connect a node to itself", name().c_str());
    portOnA_ = end_a.attachLink(this);
    portOnB_ = end_b.attachLink(this);

    dirs_[0].to = endB_; // A -> B
    dirs_[0].toPort = portOnB_;
    dirs_[1].to = endA_; // B -> A
    dirs_[1].toPort = portOnA_;
    // One loss stream per direction; the A->B stream keeps the
    // historical seed.
    dirs_[0].lossRate = config_.lossRate;
    dirs_[1].lossRate = config_.lossRate;
    dirs_[0].lossRng = Rng(config_.lossSeed);
    dirs_[1].lossRng = Rng(config_.lossSeed ^ 0x9E3779B97F4A7C15ull);
    // Impairment draws get their own per-direction streams so the
    // adversarial channel composes with (never perturbs) lossRate.
    dirs_[0].impairRng = Rng(config_.lossSeed ^ 0x494D5041ull);
    dirs_[1].impairRng =
        Rng(config_.lossSeed ^ 0x494D5041ull ^ 0x9E3779B97F4A7C15ull);
}

Link::Direction &
Link::directionFrom(const Node &from)
{
    if (&from == endA_)
        return dirs_[0];
    if (&from == endB_)
        return dirs_[1];
    panic("%s: node %s is not an endpoint", name().c_str(),
          from.name().c_str());
}

int
Link::portOn(const Node &node) const
{
    if (&node == endA_)
        return portOnA_;
    if (&node == endB_)
        return portOnB_;
    panic("%s: node %s is not an endpoint", name().c_str(),
          node.name().c_str());
}

Node &
Link::peerOf(const Node &node) const
{
    if (&node == endA_)
        return *endB_;
    if (&node == endB_)
        return *endA_;
    panic("%s: node %s is not an endpoint", name().c_str(),
          node.name().c_str());
}

void
Link::dropNext(const Node &from, int n)
{
    directionFrom(from).dropNext += n;
}

void
Link::corruptNext(const Node &from, int n)
{
    directionFrom(from).corruptNext += n;
}

void
Link::setImpairment(const Node &from, const Impairment &imp)
{
    Direction &dir = directionFrom(from);
    dir.impair = imp;
    dir.geState = 0;
}

bool
Link::transmit(const Node &from, PacketPtr pkt)
{
    Direction &dir = directionFrom(from);
    std::size_t size = pkt->wireSize();

    // Injected loss: the packet occupies the line as usual but never
    // arrives (it is "corrupted on the wire"). The Gilbert–Elliott
    // channel composes with (runs after) the legacy uniform process:
    // first the state's loss draw, then the state-transition draw, so
    // one packet always costs the same number of impairRng draws.
    bool lose = false;
    if (dir.dropNext > 0) {
        dir.dropNext--;
        lose = true;
    } else if (dir.lossRate > 0.0 &&
               dir.lossRng.nextBool(dir.lossRate)) {
        lose = true;
    }
    if (!lose && dir.impair.hasLoss()) {
        const Impairment &imp = dir.impair;
        lose = dir.impairRng.nextBool(
            dir.geState == 0 ? imp.geLossGood : imp.geLossBad);
        if (dir.impairRng.nextBool(dir.geState == 0 ? imp.geGoodToBad
                                                    : imp.geBadToGood))
            dir.geState ^= 1;
    }
    if (lose) {
        dir.losses++;
        return true;
    }

    bool corrupt_this = dir.corruptNext > 0;
    if (corrupt_this)
        dir.corruptNext--;
    else if (dir.impair.corruptRate > 0.0)
        corrupt_this = dir.impairRng.nextBool(dir.impair.corruptRate);
    if (corrupt_this) {
        dir.corrupted++;
        // Flip one bit of the wire image. For PMNet packets the bit
        // lands in the CRC-covered header region (SeqNum), so the
        // copy parses but fails verifyHash() at the receiver; the
        // sender's original packet is left untouched.
        auto damaged = std::make_shared<Packet>(*pkt);
        if (damaged->pmnet)
            damaged->pmnet->seqNum ^= 0x04;
        else if (!damaged->payload.empty())
            damaged->payload.front() ^= 0x04;
        pkt = std::move(damaged);
    }

    bool duplicate = dir.impair.duplicateRate > 0.0 &&
                     dir.impairRng.nextBool(dir.impair.duplicateRate);

    if (dir.queuedBytes + size > config_.queueBytes) {
        dir.drops++;
        return false;
    }

    Tick depart = std::max(now(), dir.lineFreeAt);
    double gbps = dir.impair.bandwidthGbps > 0.0
                      ? dir.impair.bandwidthGbps
                      : config_.gbps;
    TickDelta serialize = serializationDelay(size, gbps);
    dir.lineFreeAt = depart + serialize;
    dir.queuedBytes += size;

    // Post-serialization latency impairments only ever *add* delay.
    TickDelta extra = dir.impair.extraDelay;
    if (dir.impair.jitter > 0)
        extra += static_cast<TickDelta>(dir.impairRng.nextUInt(
            static_cast<std::uint64_t>(dir.impair.jitter) + 1));
    if (dir.impair.reorderRate > 0.0 &&
        dir.impairRng.nextBool(dir.impair.reorderRate)) {
        extra += dir.impair.reorderDelay;
        dir.reordered++;
    }
    if (duplicate)
        dir.duplicated++;

    Tick arrive = depart + serialize + config_.propagation;
    sim::Simulator &sim = simulator();
    if (extra == 0 && !duplicate) {
        // Clean-channel fast path, byte-identical to the
        // pre-impairment link: one event, and a capture list small
        // enough for the scheduler's inline small-buffer storage (no
        // heap per hop); the destination node/port are re-read from
        // dir on delivery.
        sim.scheduleAt(arrive, [&dir, size, pkt = std::move(pkt)]() {
            dir.queuedBytes -= size;
            dir.bytesCarried += size;
            if (dir.to->isUp())
                dir.to->receive(pkt, dir.toPort);
        });
        return true;
    }
    // Impaired path: wire/queue accounting keeps the un-impaired
    // arrival tick (the line itself is done with the packet), the
    // delivery lands `extra` later, and a duplicate follows one
    // serialization time after the original copy.
    sim.scheduleAt(arrive, [&dir, size]() {
        dir.queuedBytes -= size;
        dir.bytesCarried += size;
    });
    if (duplicate) {
        sim.scheduleAt(arrive + extra + serialize, [&dir, pkt]() {
            if (dir.to->isUp())
                dir.to->receive(pkt, dir.toPort);
        });
    }
    sim.scheduleAt(arrive + extra, [&dir, pkt = std::move(pkt)]() {
        if (dir.to->isUp())
            dir.to->receive(pkt, dir.toPort);
    });
    return true;
}

} // namespace pmnet::net
