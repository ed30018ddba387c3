/**
 * @file
 * Point-to-point full-duplex link with a bandwidth, a propagation
 * delay and a bounded egress queue per direction.
 *
 * Serialization is modeled by keeping a per-direction "line free at"
 * time: a packet departs at max(now, line_free) and occupies the line
 * for wireSize/bandwidth. Queued-but-untransmitted bytes beyond the
 * queue capacity are tail-dropped. This is what produces the paper's
 * Fig 16 shape — flat latency until offered load reaches 10 Gbps, then
 * a queueing spike.
 */

#ifndef PMNET_NET_LINK_H
#define PMNET_NET_LINK_H

#include <array>

#include "common/rng.h"
#include "common/stats.h"
#include "net/impairment.h"
#include "net/node.h"

namespace pmnet::net {

/** Static link parameters. */
struct LinkConfig
{
    /** Line rate in Gbit/s. */
    double gbps = 10.0;
    /** One-way propagation delay. */
    TickDelta propagation = nanoseconds(300);
    /** Max bytes waiting for the line per direction (tail drop). */
    std::size_t queueBytes = 2 * 1024 * 1024;
    /** Random per-packet loss probability (failure experiments). */
    double lossRate = 0.0;
    /** Seed for the loss process. */
    std::uint64_t lossSeed = 0x4C4F5353;
};

/**
 * A duplex link between exactly two nodes. Each direction keeps its
 * own line occupancy, egress queue, loss and impairment processes and
 * counters, so the two directions never share mutable state.
 */
class Link : public sim::SimObject
{
  public:
    Link(sim::Simulator &simulator, std::string object_name,
         Node &end_a, Node &end_b, LinkConfig config = {});

    /**
     * Enqueue @p pkt for transmission away from @p from.
     * @return false if the egress queue overflowed (packet dropped).
     */
    bool transmit(const Node &from, PacketPtr pkt);

    /** Port index of this link on node @p node. */
    int portOn(const Node &node) const;

    /** The node on the other end of the link from @p node. */
    Node &peerOf(const Node &node) const;

    const LinkConfig &config() const { return config_; }

    /**
     * Change the random per-packet loss probability at runtime (both
     * directions). Each direction's loss RNG keeps its stream, so a
     * plan replayed with the same seed loses exactly the same
     * packets.
     */
    void
    setLossRate(double loss_rate)
    {
        dirs_[0].lossRate = loss_rate;
        dirs_[1].lossRate = loss_rate;
    }

    /**
     * Corrupt the next @p n packets transmitted away from @p from:
     * the packet is delivered, but with one bit of its PMNet header
     * flipped, so it parses and then fails the CRC check at the
     * receiver (Section IV-A2 integrity story). Non-PMNet packets
     * get a payload byte flipped instead.
     */
    void corruptNext(const Node &from, int n);

    /**
     * Install an adversarial channel on the direction transmitting
     * away from @p from (DESIGN.md section 15). Replaces any previous
     * impairment; `Impairment{}` restores the clean channel. Resets
     * the Gilbert–Elliott state to Good.
     */
    void setImpairment(const Node &from, const Impairment &imp);

    /** Extra copies delivered by the duplication impairment. */
    std::uint64_t
    duplicates() const
    {
        return dirs_[0].duplicated + dirs_[1].duplicated;
    }

    /** Packets held back by the reordering impairment (and thus
     *  overtaken by any packet serialized within the window). */
    std::uint64_t
    reorders() const
    {
        return dirs_[0].reordered + dirs_[1].reordered;
    }

    /** Packets delivered with an injected corruption. */
    std::uint64_t
    corruptions() const
    {
        return dirs_[0].corrupted + dirs_[1].corrupted;
    }

    /** Packets dropped due to egress-queue overflow. */
    std::uint64_t drops() const { return dirs_[0].drops + dirs_[1].drops; }

    /** Packets lost to injected loss (random or dropNext). */
    std::uint64_t
    losses() const
    {
        return dirs_[0].losses + dirs_[1].losses;
    }

    /**
     * Deterministically drop the next @p n packets transmitted away
     * from @p from (loss-injection for the Fig 7b tests).
     */
    void dropNext(const Node &from, int n);

    /** Total bytes that finished serialization onto the wire. */
    std::uint64_t
    bytesCarried() const
    {
        return dirs_[0].bytesCarried + dirs_[1].bytesCarried;
    }

  private:
    struct Direction
    {
        Node *to = nullptr;
        int toPort = -1;
        Tick lineFreeAt = 0;
        std::size_t queuedBytes = 0;
        int dropNext = 0;
        int corruptNext = 0;
        double lossRate = 0.0;
        Rng lossRng{0};
        /**
         * The direction's adversarial channel. All impairment draws
         * come from impairRng — a stream separate from lossRng, so
         * installing an impairment never shifts the legacy lossRate
         * process — and an inactive impairment consumes zero draws.
         */
        Impairment impair;
        /** Gilbert–Elliott channel state: 0 = Good, 1 = Bad. */
        int geState = 0;
        Rng impairRng{0};
        std::uint64_t drops = 0;
        std::uint64_t losses = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t reordered = 0;
        std::uint64_t bytesCarried = 0;
    };

    /** Direction whose traffic flows away from @p from. */
    Direction &directionFrom(const Node &from);

    LinkConfig config_;
    Node *endA_;
    Node *endB_;
    int portOnA_;
    int portOnB_;
    std::array<Direction, 2> dirs_;
};

} // namespace pmnet::net

#endif // PMNET_NET_LINK_H
