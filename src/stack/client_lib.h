/**
 * @file
 * The PMNet client software library (paper Table I and Section V-B).
 *
 * Mirrors the paper's interface:
 *
 *   PMNet_send_update()  -> ClientLib::sendUpdate()
 *   PMNet_bypass()       -> ClientLib::bypass()
 *   PMNet_start_session()-> ClientLib::startSession()
 *   PMNet_end_session()  -> ClientLib::endSession()
 *
 * Responsibilities (Sections IV-A3, IV-A4 and IV-C):
 *  - fragment requests larger than the MTU, one SeqNum per packet;
 *  - collect per-packet PMNet-ACKs; a fragment is complete once
 *    `replicationDegree` distinct PMNet devices have acknowledged it
 *    *or* the server itself has (the fallback when the device could
 *    not log the packet — collision, full log, full queue);
 *  - time out and resend unacknowledged fragments (reliable delivery
 *    over UDP);
 *  - answer server-originated Retrans requests that no device could
 *    serve from its log;
 *  - complete bypass requests on the server's (or cache's) Response.
 *
 * The same completion rule covers the Client-Server baseline: with no
 * PMNet device on the path, fragments only ever complete through
 * server-ACKs.
 */

#ifndef PMNET_STACK_CLIENT_LIB_H
#define PMNET_STACK_CLIENT_LIB_H

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "obs/metric_registry.h"
#include "pmnet/shard_map.h"
#include "stack/host.h"

namespace pmnet::stack {

/** Per-client protocol parameters. */
struct ClientConfig
{
    /** Destination server. */
    net::NodeId server = net::kInvalidNode;
    /** Session identifier (unique per client connection). */
    std::uint16_t sessionId = 0;
    /** Max application payload bytes per packet (MTU minus headers). */
    std::size_t mtuPayload = 1400;
    /** Resend timer for incomplete requests. */
    TickDelta retryTimeout = microseconds(500);
    /**
     * Number of distinct PMNet devices that must acknowledge a
     * fragment before it counts as persisted in the network
     * (Section IV-C; 1 without replication).
     */
    unsigned replicationDegree = 1;
};

/**
 * Aggregate client-side protocol statistics. Private to the library —
 * readers go through obs::MetricRegistry ("clientN.*" after
 * ClientLib::registerMetrics), the one public metrics surface.
 */
struct ClientStats
{
    obs::Counter updatesSent;
    obs::Counter bypassSent;
    obs::Counter updatesCompleted;
    obs::Counter bypassCompleted;
    obs::Counter completedByPmnetAck;
    obs::Counter completedByServerAck;
    obs::Counter timeouts;
    obs::Counter packetsResent;
    obs::Counter retransAnswered;
    obs::Counter shardParked;    ///< requests created while shard dark
    obs::Counter shardHeld;      ///< timer fires swallowed while dark
};

/** The client-side PMNet library. One instance per client host. */
class ClientLib
{
  public:
    ClientLib(Host &host, ClientConfig config);

    /** Completion callback for updates. */
    using UpdateDone = std::function<void()>;
    /** Completion callback for bypass requests (carries the reply). */
    using BypassDone = std::function<void(const Bytes &response)>;

    /**
     * Route requests across a sharded PMNet fabric (DESIGN.md §14).
     * @p map partitions the key space (owned by the testbed, must
     * outlive this library); @p shard_servers[s] is the server node
     * of shard s. Each shard gets an independent update/bypass
     * sequence space so every shard's server sees a contiguous
     * stream. Callers then pass the key hash computed at parse time
     * (KeyRef; never rehash) to sendUpdate/bypass.
     * Without a map, all requests go to config().server unchanged.
     */
    void setShardMap(const pmnet::ShardMap *map,
                     std::vector<net::NodeId> shard_servers);

    /** Open the session (resets sequence numbering). */
    void startSession();

    /** Close the session. Outstanding requests are abandoned. */
    void endSession();

    /**
     * Send an update request; @p done fires when the update is
     * persistent (in-network or on the server). @p key_hash selects
     * the owning shard when a shard map is set (ignored otherwise).
     */
    void sendUpdate(Bytes payload, std::uint64_t key_hash,
                    UpdateDone done);
    void sendUpdate(Bytes payload, UpdateDone done)
    {
        sendUpdate(std::move(payload), 0, std::move(done));
    }

    /**
     * Send a read/synchronization request that must be processed by
     * the server (or the in-switch cache); never logged or
     * early-ACKed. Must fit in one MTU payload. @p key_hash selects
     * the owning shard when a shard map is set (ignored otherwise).
     */
    void bypass(Bytes payload, std::uint64_t key_hash, BypassDone done);
    void bypass(Bytes payload, BypassDone done)
    {
        bypass(std::move(payload), 0, std::move(done));
    }

    /** Requests (of both kinds) still in flight. */
    std::size_t outstanding() const { return requests_.size(); }

    /** Attach each stat under "<prefix>.<name>" in @p registry. */
    void registerMetrics(obs::MetricRegistry &registry,
                         std::string_view prefix);

    /**
     * Attach the flight recorder (nullptr detaches): the library
     * opens a trace per request and closes it at completion — the
     * same tick the driver records end-to-end latency.
     */
    void setRecorder(obs::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    const ClientConfig &config() const { return config_; }

  private:
    struct Fragment
    {
        net::PacketPtr packet;
        std::set<net::NodeId> pmnetAckers;
        bool serverAcked = false;
    };

    struct Request
    {
        std::uint64_t id = 0;
        bool isUpdate = true;
        /** Owning shard (0 without a shard map). */
        unsigned shard = 0;
        /**
         * Fail-over to tail: issued while the shard was not Healthy,
         * so only the shard server's own ack completes a fragment —
         * the chain's replica count cannot be trusted mid-repair.
         */
        bool requireServerAck = false;
        std::uint32_t firstSeq = 0;
        std::vector<Fragment> fragments;
        UpdateDone updateDone;
        BypassDone bypassDone;
        bool responseReceived = false;
        Bytes response;
        sim::EventHandle timer;
        std::uint64_t resends = 0;
    };

    void onReceive(const net::PacketPtr &pkt);
    void handlePmnetAck(const net::Packet &pkt);
    void handleServerAck(const net::Packet &pkt);
    void handleResponse(const net::Packet &pkt);
    void handleRetrans(const net::Packet &pkt);

    /**
     * Resolve an incoming control packet to its request + fragment
     * index via the referenced HashVal (unique across the update and
     * bypass sequence spaces because the packet type is hashed).
     * @return nullptr when the request already completed.
     */
    Request *requestForHash(std::uint32_t hash, std::uint32_t seq,
                            std::size_t *index_out);
    bool fragmentComplete(const Request &req, const Fragment &frag) const;
    void maybeComplete(std::uint64_t request_id);
    void armTimer(Request &req);
    void onTimeout(std::uint64_t request_id);
    std::uint64_t newRequestId(unsigned shard);

    /** Owning shard of @p key_hash (0 without a map). */
    unsigned shardFor(std::uint64_t key_hash) const
    {
        return shardMap_ ? shardMap_->ownerOf(key_hash) : 0;
    }
    /** Server node of @p shard. */
    net::NodeId serverFor(unsigned shard) const
    {
        return shardMap_ ? shardServers_[shard] : config_.server;
    }
    /** True while @p shard drops traffic (chain severed). */
    bool shardDark(unsigned shard) const
    {
        return shardMap_ &&
               shardMap_->health(shard) == pmnet::ShardMap::Health::Failed;
    }

    Host &host_;
    ClientConfig config_;
    ClientStats stats_;
    obs::FlightRecorder *recorder_ = nullptr;
    bool sessionOpen_ = false;
    const pmnet::ShardMap *shardMap_ = nullptr;
    std::vector<net::NodeId> shardServers_;
    /**
     * Updates and bypass requests number independently: the update
     * stream must stay contiguous for the server's redo-log ordering
     * (Section IV-A4), while bypass requests may be answered by the
     * in-switch cache and never reach the server at all. Each shard
     * keeps its own pair so its server sees a gap-free stream.
     */
    struct ShardSeq
    {
        std::uint32_t nextUpdate = 1;
        std::uint32_t nextBypass = 1;
    };
    std::vector<ShardSeq> shardSeqs_{1};
    std::uint64_t nextRequest_ = 1;
    std::unordered_map<std::uint64_t, Request> requests_;
    /** Fragment HashVal -> owning request. */
    std::unordered_map<std::uint32_t, std::uint64_t> hashToRequest_;
};

} // namespace pmnet::stack

#endif // PMNET_STACK_CLIENT_LIB_H
