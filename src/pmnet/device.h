/**
 * @file
 * The PMNet programmable network device (paper Sections IV-B and V-A).
 *
 * A ForwardingNode whose match-action pipeline implements in-network
 * data persistence:
 *
 *  - update-req packets are forwarded immediately and, in parallel,
 *    written to the device's persistent log (PmLogStore) through the
 *    SRAM write queue (LogQueue). Once the fence covering the PM
 *    write retires (see DeviceConfig's commit epochs), the device
 *    sends a PMNet-ACK back to the client. Collisions, full logs,
 *    full queues and oversized packets all degrade to "forward
 *    without logging" — the client then falls back to the server's
 *    own ACK, exactly the paper's behaviour.
 *  - bypass-req packets are forwarded untouched (unless the read
 *    cache, when enabled, can serve them).
 *  - server-ACKs invalidate the matching log entry and continue
 *    toward the client.
 *  - Retrans requests are served from the log when possible and only
 *    otherwise travel all the way to the client.
 *  - RecoveryPoll packets (from a recovering server) trigger a log
 *    scan that re-sends every logged request destined to that server,
 *    paced by the PM read queue.
 *  - everything else is plain-forwarded.
 *
 * The same class implements PMNet-Switch and PMNet-NIC: the only
 * difference is where the topology places it (ToR switch vs.
 * bump-in-the-wire in front of the server), as in the paper.
 *
 * Power-failure semantics: committed log entries survive; the SRAM
 * queues and any in-flight (unacknowledged) log writes, the read
 * cache, and all pending pipeline work are lost.
 */

#ifndef PMNET_PMNET_DEVICE_H
#define PMNET_PMNET_DEVICE_H

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "net/switch.h"
#include "obs/metric_registry.h"
#include "pm/commit_epoch.h"
#include "pm/log_queue.h"
#include "pm/log_store.h"
#include "pmnet/cache_codec.h"
#include "pmnet/read_cache.h"

namespace pmnet::pmnetdev {

/** Retry gap when a log stream or a resilver write finds its PM queue
 *  full. */
inline constexpr TickDelta kRecoveryRetryGap = microseconds(1);

/** @name Heartbeat failure detection (Fig 3, Section IV-E)
 * When enabled (via PmnetDevice::enableHeartbeat), the device probes
 * the server every kHeartbeatInterval; after kHeartbeatMissThreshold
 * consecutive misses the server is declared down, and the first ack
 * after an outage triggers an automatic log replay.
 *  @{
 */
inline constexpr TickDelta kHeartbeatInterval = microseconds(100);
inline constexpr unsigned kHeartbeatMissThreshold = 3;
/** @} */

/** Tunable parameters of one PMNet device. */
struct DeviceConfig
{
    /** Ingress+egress match-action pipeline latency. */
    TickDelta pipelineLatency = nanoseconds(500);
    /** Device PM (log) parameters: 273 ns write, 2 GB, 2 KB slots. */
    pm::DevicePmConfig pm;
    /** SRAM log-queue size per direction (Section V-A: 4 KB). */
    std::size_t logQueueBytes = 4096;
    /** Read-cache entry capacity (only used when a codec is set). */
    std::size_t cacheCapacity = 65536;

    /** @name Commit epochs (DESIGN.md section 13)
     * Every completed log write stages into a pm::CommitEpoch, and its
     * PMNet-ACK is held until the fence of its epoch retires. An epoch
     * closes at a bytes or ops threshold, or when the max-hold doorbell
     * fires. The default epochOps = 1 is per-op fencing: each write
     * closes its own epoch, and with a zero fenceLatency its ACK leaves
     * inside the write-completion event.
     *  @{
     */
    /** Close the epoch when staged log bytes reach this threshold. */
    std::size_t epochBytes = 4096;
    /** Close the epoch when this many writes are staged. */
    std::uint32_t epochOps = 1;
    /** Doorbell: never hold an ACK longer than this past epoch open. */
    TickDelta epochMaxHold = microseconds(2);
    /**
     * Modeled latency of one fence retirement, charged once per epoch
     * as a stall of the PM write queue. 0 retires the fence at the
     * close.
     */
    TickDelta fenceLatency = 0;
    /** @} */

    /** @name Stale-log re-forwarding (DESIGN.md section 15)
     * A logged entry whose server-ACK never arrives means either the
     * forwarded update or the ACK died on the wire after the client
     * already completed on the PMNet-ACK. When the loss swallowed the
     * *tail* of a session's stream, the server's gap detector has no
     * later packet to notice the hole with, so nothing ever asks for
     * a retransmission — the op would stay durable-but-unapplied
     * until the next recovery replay. With reforwardAge nonzero the
     * device periodically re-forwards log entries older than it
     * toward their server (which drops duplicates and re-ACKs), and
     * that closes the window. Off by default so the historical packet
     * flows stay byte-identical; the adversarial scenario runner
     * (fault::runScenario) switches it on.
     *  @{
     */
    TickDelta reforwardAge = 0;
    /** Scan cadence while re-forwarding is on and the log holds
     *  entries; an empty log schedules nothing. */
    TickDelta reforwardInterval = microseconds(100);
    /** @} */
};

/**
 * Observable event counters of one device. Private to the device —
 * readers go through obs::MetricRegistry ("deviceN.*" after
 * PmnetDevice::registerMetrics), the one public metrics surface.
 *
 * The five bypass* counters count bypass events, not distinct
 * updates: a client resend of an update that bypassed the log meets
 * the same condition again (for a collision, the same occupied slot)
 * and counts again each time.
 */
struct DeviceStats
{
    obs::Counter updatesSeen;
    obs::Counter updatesLogged;
    obs::Counter updatesReAcked;    ///< duplicate already persistent
    obs::Counter bypassCollision;
    obs::Counter bypassQueueFull;
    obs::Counter bypassStoreRace;
    obs::Counter bypassTooLarge;
    obs::Counter bypassBadHash;
    obs::Counter acksSent;
    obs::Counter serverAcks;
    obs::Counter invalidations;
    obs::Counter retransSeen;
    obs::Counter retransServed;
    obs::Counter retransForwarded;
    obs::Counter cacheResponses;
    obs::Counter nearDataSeen;
    obs::Counter nearDataServed; ///< RMW answered in-network
    obs::Counter recoveryPolls;
    obs::Counter recoveryResent;
    obs::Counter reforwarded; ///< stale un-ACKed entries re-sent
    obs::Counter resilverPushesSent;
    obs::Counter resilverReceived;
    obs::Counter resilverLogged;
    obs::Counter resilverSkipped; ///< duplicate / unparseable push
    obs::Counter nonPmnetForwarded;
    obs::Counter heartbeatsSent;
    obs::Counter heartbeatAcks;
    obs::Counter serverDownEvents;
    obs::Counter serverUpEvents;
};

/** A PM-integrated programmable switch/NIC. */
class PmnetDevice : public net::ForwardingNode
{
  public:
    PmnetDevice(sim::Simulator &simulator, std::string object_name,
                net::NodeId node_id, DeviceConfig config = {});

    /**
     * Enable the in-switch read cache (Section IV-D). @p codec stays
     * owned by the caller and must outlive the device.
     */
    void enableCache(const CacheCodec *codec);

    void receive(net::PacketPtr pkt, int in_port) override;

    /**
     * Permanent hardware failure + replacement (Section IV-E2): the
     * unit comes back up with an *empty* persistent log — whatever it
     * held is only recoverable from the other replicas in the chain.
     */
    void replaceUnit();

    /**
     * Start probing @p server with heartbeats (Fig 3): the device
     * detects the server's failure itself and replays its log as
     * soon as the server answers again — no server-initiated
     * RecoveryPoll required.
     */
    void enableHeartbeat(net::NodeId server);

    /** True while the monitored server is considered failed. */
    bool serverConsideredDown() const { return serverDown_; }

    /**
     * Chain repair (DESIGN.md section 14): stream every live log
     * entry to @p peer — a freshly swapped-in replacement unit in the
     * same shard chain — as ResilverPush packets, paced by the PM
     * read queue exactly like a recovery replay. The receiver logs
     * entries it is missing without generating client ACKs; pushes
     * for entries it already holds are no-ops, so re-silvering is
     * idempotent and a crashed stream can simply be restarted.
     */
    void resilverTo(net::NodeId peer);

    /**
     * True while a resilver stream is still pushing entries. Cleared
     * when the stream finishes or this device loses power; the repair
     * coordinator polls it between simulation windows and restarts
     * the stream if the source died mid-push.
     */
    bool resilverActive() const { return resilverActive_; }

    /**
     * Attach an event trace (owned by the caller; nullptr detaches).
     * Records log/bypass/ACK/invalidate/retrans/replay decisions.
     */
    void setTrace(TraceRing *trace) { trace_ = trace; }

    /**
     * Attach each stat (plus log/cache occupancy probes) under
     * "<prefix>.<name>" in @p registry.
     */
    void registerMetrics(obs::MetricRegistry &registry,
                         std::string_view prefix);

    /**
     * Attach the flight recorder (nullptr detaches): the device
     * stamps DeviceIngress when a request enters its pipeline,
     * PersistStart when the write is admitted to the SRAM log queue,
     * PersistStage when the PM write completes (log entry staged),
     * and PersistDone when the covering fence has retired and the
     * PMNet-ACK is generated.
     */
    void setRecorder(obs::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /**
     * Install a log-store observer (nullptr detaches). The gateway's
     * journal mirrors committed/invalidated log entries through it so
     * a SIGKILLed daemon can rebuild the log on restart.
     */
    void setLogObserver(pm::LogStoreObserver *observer)
    {
        store_.setObserver(observer);
    }

    /**
     * Gateway restart path: re-insert a journaled log entry directly
     * into the persistent store — no SRAM queueing, no modeled
     * timing, no client ACK. The entry was durable before the process
     * died; this only rebuilds its in-memory image and must run
     * before the daemon starts serving.
     * @return true if the entry is (now) present.
     */
    bool restoreLogEntry(net::PacketPtr pkt);

    const pm::PmLogStore &logStore() const { return store_; }
    const pm::LogQueue &writeQueue() const { return writeQueue_; }
    const pm::LogQueue &readQueue() const { return readQueue_; }
    const pm::CommitEpoch &commitEpoch() const { return commitEpoch_; }
    ReadCache &cache() { return cache_; }
    const DeviceConfig &config() const { return config_; }

  protected:
    void onPowerFail() override;
    void onPowerRestore() override;

  private:
    void process(net::PacketPtr pkt);
    void handleUpdateReq(const net::PacketPtr &pkt);
    void handleNearData(const net::PacketPtr &pkt);
    void handleBypassReq(const net::PacketPtr &pkt);
    void handleServerAck(const net::PacketPtr &pkt);
    void handleRetrans(const net::PacketPtr &pkt);
    void handleResponse(const net::PacketPtr &pkt);
    void handleRecoveryPoll(const net::PacketPtr &pkt);
    void handleResilverPush(const net::PacketPtr &pkt);

    /**
     * Admit a reconstructed resilver entry to the SRAM write queue
     * (retrying while it is full) and write it to the log. No client
     * ACK is generated — the write only restores replica count.
     */
    void resilverAdmit(net::PacketPtr restored);

    /**
     * Hashes of the live log entries bound for @p server, in replay
     * order: ascending (sessionId, seqNum), hashVal breaking ties. The
     * server then receives each session's updates in sequence, as in
     * the paper's replay (Section IV-E, Fig 3), and assembles them as
     * they arrive. In any other order, every update that arrives ahead
     * of an earlier one makes ServerLib::gapCheck ask a Retrans for
     * each seq in between.
     */
    std::vector<std::uint32_t> replayOrder(net::NodeId server) const;

    /** What a log stream does with each live entry it reaches. */
    enum class StreamKind : std::uint8_t
    {
        Replay,    ///< resend toward the recovering server
        Reforward, ///< re-send a stale un-ACKed entry toward its server
        Resilver,  ///< wrap in a ResilverPush toward the peer
    };

    /**
     * Stream the log entries @p hashes[index..] as @p kind says, paced
     * by the PM read queue: skip entries invalidated since the scan,
     * admit one read per entry (retrying after kRecoveryRetryGap while
     * the queue is full), emit the entry when its read completes. The
     * vector is owned by value and moved from event to event along the
     * chain, so a scan allocates once. @p to is the resilver peer. A
     * Resilver stream clears resilverActive() when it ends.
     */
    void streamLog(StreamKind kind, std::vector<std::uint32_t> hashes,
                   std::size_t index, net::NodeId to);

    /**
     * The ResilverPush carrying @p logged to @p peer: the original
     * envelope (addresses, ports, sim identity) and wire payload ride
     * inside the push payload; handleResilverPush rebuilds them.
     */
    net::PacketPtr resilverPush(const net::Packet &logged,
                                net::NodeId peer) const;

    /** @name Stale-log re-forward timer (see DeviceConfig)
     * The timer is lazy: armed when a log write (or resilver write,
     * or power restore) leaves the store non-empty, re-armed after
     * each scan while entries remain, gone the moment the log drains.
     *  @{
     */
    void scheduleReforwardScan();
    void reforwardScan();
    /** @} */

    /**
     * Schedule @p fn guarded by the device epoch: it silently does
     * nothing if the device lost power in between. A template, so a
     * closure holding `this` and a PacketPtr fits the event's inline
     * buffer instead of a heap-allocated std::function.
     */
    template <typename Fn>
    void
    scheduleGuarded(TickDelta delay, Fn fn)
    {
        schedule(delay, [this, epoch = epoch_, fn = std::move(fn)]() mutable {
            if (epoch == epoch_ && isUp())
                fn();
        });
    }

    /** Application key of an update payload, if parseable. */
    std::optional<ParsedUpdate> parsedKeyOf(const net::Packet &pkt) const;

    /** Outcome of tryLogAndAck, so callers can act on duplicates. */
    enum class LogAttempt : std::uint8_t
    {
        Logged,    ///< admitted: the log will cover this packet
        Bypassed,  ///< degradation path: forward-only, server ACKs
        Duplicate, ///< resend of a logged or pending packet
    };

    /**
     * Shared logging attempt for UpdateReq/NearDataReq: duplicate
     * re-ACK, bypass degradations, SRAM admission, and the PM-write
     * continuation. Duplicate covers committed entries and pending
     * writes (queued, staged or fencing) — a resend must never be
     * logged (or served) twice, nor re-ACKed before it is durable.
     */
    LogAttempt tryLogAndAck(const net::PacketPtr &pkt);

    /**
     * The log write for @p pkt completed: insert it into the store,
     * stage it into the open epoch, then close the epoch at a
     * threshold or arm the doorbell if this write opened it.
     */
    void finishLoggedWrite(const net::PacketPtr &pkt);

    /**
     * Send the PMNet-ACK for a durably logged request: the first ACK
     * once its fence retired, or the re-ACK of a duplicate.
     */
    void sendPmnetAck(const net::PacketPtr &pkt);

    /**
     * Answer @p req on its server's behalf with a Response carrying
     * @p payload (read-cache hit, near-data RMW served in-network).
     */
    void respondForServer(const net::Packet &req, Bytes payload);

    /**
     * Remember the key of an update that bypassed the log, so its
     * server-ACK can still drive the cache's T6 transition.
     */
    void trackUnlogged(std::uint32_t hash_val, const KeyRef &key);

    /**
     * Close the open epoch: one fence, one write-queue stall, covers
     * its staged writes; their ACKs leave when it retires.
     */
    void closeCommitEpoch(pm::EpochCloseReason reason);

    /** Send the ACKs of the fencing writes whose fence has retired. */
    void releaseRetiredAcks();

    /** Where a pending log write is on its way to its first ACK. */
    enum class WritePhase : std::uint8_t
    {
        Queued,  ///< admitted to the SRAM write queue, not in PM yet
        Staged,  ///< in the store, in the open epoch
        Fencing, ///< in the store, its epoch's fence not retired yet
    };

    /** A log write whose first PMNet-ACK has not left. */
    struct PendingWrite
    {
        net::PacketPtr pkt;
        WritePhase phase = WritePhase::Queued;
        Tick retireAt = 0; ///< Fencing: when the epoch's fence retires
    };

    /** The pending write for @p hash_val, or pending_.end(). */
    std::vector<PendingWrite>::iterator findPending(std::uint32_t hash_val);

    DeviceConfig config_;
    DeviceStats stats_;
    pm::PmLogStore store_;
    pm::LogQueue writeQueue_;
    pm::LogQueue readQueue_;
    pm::CommitEpoch commitEpoch_;
    /**
     * Log writes whose first PMNet-ACK has not left, in admission
     * order. The write queue is FIFO, so writes land, stage, close and
     * retire in this order too: retired entries are always a prefix.
     * Staged and fencing entries are in the store but not durable —
     * a duplicate must not be re-ACKed from them, and a power failure
     * rolls them back. Resilver writes stay only while queued.
     */
    std::vector<PendingWrite> pending_;
    ReadCache cache_;
    const CacheCodec *codec_ = nullptr;

    /**
     * Keys of updates that bypassed logging, so the matching
     * server-ACK can still drive the cache's T6 transition. Volatile.
     * The key hash computed at parse time is kept alongside so the
     * ACK path never rehashes.
     */
    struct UnloggedKey
    {
        std::string key;
        std::uint64_t hash;
    };
    std::unordered_map<std::uint32_t, UnloggedKey> unloggedKeys_;

    /** Bumped on power failure to invalidate in-flight callbacks. */
    std::uint64_t epoch_ = 0;

    /** A resilver stream is in flight (see resilverActive()). */
    bool resilverActive_ = false;

    /** A reforward scan is already scheduled (at most one pending). */
    bool reforwardScanPending_ = false;

    /** Optional event trace. */
    TraceRing *trace_ = nullptr;

    /** Optional flight recorder (owned by the testbed). */
    obs::FlightRecorder *recorder_ = nullptr;

    /** Record into the trace if one is attached. */
    void traceEvent(const char *what, const net::Packet &pkt);

    /** @name Heartbeat state
     *  @{
     */
    void heartbeatTick();
    void handleHeartbeatAck(const net::PacketPtr &pkt);

    bool heartbeatEnabled_ = false;
    net::NodeId heartbeatServer_ = net::kInvalidNode;
    unsigned heartbeatMisses_ = 0;
    bool heartbeatAckSeen_ = false;
    bool serverDown_ = false;
    /** @} */
};

} // namespace pmnet::pmnetdev

#endif // PMNET_PMNET_DEVICE_H
