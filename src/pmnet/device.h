/**
 * @file
 * The PMNet programmable network device (paper Sections IV-B and V-A).
 *
 * A ForwardingNode whose match-action pipeline implements in-network
 * data persistence:
 *
 *  - update-req packets are forwarded immediately and, in parallel,
 *    written to the device's persistent log (PmLogStore) through the
 *    SRAM write queue (LogQueue). When the PM write completes, the
 *    device generates a PMNet-ACK back to the client. Collisions,
 *    full logs, full queues and oversized packets all degrade to
 *    "forward without logging" — the client then falls back to the
 *    server's own ACK, exactly the paper's behaviour.
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
    /** Retry gap when the recovery scan finds the read queue full. */
    TickDelta recoveryRetryGap = microseconds(1);

    /** @name Heartbeat failure detection (Fig 3, Section IV-E)
     * When enabled (via enableHeartbeat), the device probes the
     * server every heartbeatInterval; after heartbeatMissThreshold
     * consecutive misses the server is declared down, and the first
     * ack after an outage triggers an automatic log replay.
     *  @{
     */
    TickDelta heartbeatInterval = microseconds(100);
    unsigned heartbeatMissThreshold = 3;
    /** @} */

    /** @name Epoch-based group commit (DESIGN.md section 13)
     * When groupCommit is on, completed log writes stage into a
     * pm::CommitEpoch and their PMNet-ACKs are held until the epoch's
     * single fence retires (bytes/ops threshold or the max-hold
     * doorbell), instead of paying one fence per request. Off by
     * default: the per-op path stays byte-identical to history.
     *  @{
     */
    bool groupCommit = false;
    /** Close the epoch when staged log bytes reach this threshold. */
    std::size_t epochBytes = 4096;
    /** Close the epoch when this many writes are staged. */
    std::uint32_t epochOps = 8;
    /** Doorbell: never hold an ACK longer than this past epoch open. */
    TickDelta epochMaxHold = microseconds(2);
    /**
     * Modeled latency of one fence retirement. Group commit charges
     * it once per epoch; the per-op path charges it per request when
     * nonzero (the honest per-op-fencing baseline for the
     * fig_group_commit comparison). 0 keeps the historical timing.
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
     * Continue a resilver stream over @p hashes toward @p peer (same
     * move-the-vector pacing discipline as recoveryResendNext).
     */
    void resilverNext(std::vector<std::uint32_t> hashes,
                      std::size_t index, net::NodeId peer);

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

    /**
     * Continue the recovery resend chain over @p hashes. The vector is
     * owned by value and moved from lambda to lambda along the chain —
     * no shared-pointer plumbing, exactly one allocation per scan.
     */
    void recoveryResendNext(std::vector<std::uint32_t> hashes,
                            std::size_t index, net::NodeId server);

    /** @name Stale-log re-forward timer (see DeviceConfig)
     * The timer is lazy: armed when a log write (or resilver write,
     * or power restore) leaves the store non-empty, re-armed after
     * each scan while entries remain, gone the moment the log drains.
     *  @{
     */
    void scheduleReforwardScan();
    void reforwardScan();
    void reforwardNext(std::vector<std::uint32_t> hashes,
                       std::size_t index);
    /** @} */

    /**
     * Schedule @p fn guarded by the device epoch: it silently does
     * nothing if the device lost power in between.
     */
    void scheduleGuarded(TickDelta delay, std::function<void()> fn);

    /** Application key of an update payload, if parseable. */
    std::optional<ParsedUpdate> parsedKeyOf(const net::Packet &pkt) const;

    /** Outcome of tryLogAndAck, so callers can act on duplicates. */
    enum class LogAttempt : std::uint8_t
    {
        Logged,    ///< admitted: the log will cover this packet
        Bypassed,  ///< degradation path: forward-only, server ACKs
        Duplicate, ///< resend of a logged / staged / in-flight packet
    };

    /**
     * Shared logging attempt for UpdateReq/NearDataReq: duplicate
     * re-ACK, bypass degradations, SRAM admission, and the PM-write
     * continuation. Duplicate covers committed entries, staged
     * entries whose fence has not retired, and writes still queued in
     * SRAM — a resend must never be logged (or served) twice.
     */
    LogAttempt tryLogAndAck(const net::PacketPtr &pkt);

    /**
     * The log write for @p pkt completed (entry in the store). Per-op
     * mode fences and ACKs immediately; group-commit mode stages the
     * ACK into the open epoch and arms/serves the doorbell.
     */
    void finishLoggedWrite(const net::PacketPtr &pkt);

    /** Generate the PMNet-ACK for a durably logged request. */
    void sendPmnetAck(const net::PacketPtr &pkt);

    /** Close the open epoch: one batch fence covers the staged writes. */
    void closeCommitEpoch(pm::EpochCloseReason reason);

    /** Drop fence batches whose retire tick has passed (now durable). */
    void retireFencedBatches();

    /**
     * True while @p hash_val sits in the open epoch or in a closed
     * batch whose fence has not retired yet — in both cases the entry
     * is not durable and must not be re-ACKed.
     */
    bool stagedUnfenced(std::uint32_t hash_val) const;

    /** True while @p hash_val has a log write queued in SRAM. */
    bool logWriteInFlight(std::uint32_t hash_val) const;

    /** The queued log write for @p hash_val reached PM (or died). */
    void logWriteLanded(std::uint32_t hash_val);

    DeviceConfig config_;
    DeviceStats stats_;
    pm::PmLogStore store_;
    pm::LogQueue writeQueue_;
    pm::LogQueue readQueue_;
    pm::CommitEpoch commitEpoch_;
    /**
     * hashVals staged in the open epoch; their store entries are not
     * yet covered by a fence, so a power failure rolls them back and
     * a duplicate arrival must not be re-ACKed from them.
     */
    std::vector<std::uint32_t> stagedHashes_;
    /** A closed epoch whose batch fence has not retired yet. */
    struct FenceBatch
    {
        Tick retireAt;
        std::vector<std::uint32_t> hashes;
    };
    /**
     * Closed-but-unretired batches, oldest first (retire ticks are
     * monotonic: each close stalls the same write queue). Entries
     * here are still volatile — a power failure before retireAt rolls
     * them back exactly like open-epoch stages; their deferred ACKs
     * are epoch-guarded and die with them.
     */
    std::vector<FenceBatch> fencePending_;
    /** When the most recent epoch's batch fence retires (acks wait). */
    Tick fenceRetireAt_ = 0;
    /**
     * hashVals admitted to the SRAM write queue whose PM write has
     * not completed. A duplicate racing this window must not be
     * admitted again (double log write, and — for near-data — a
     * double-applied RMW). Bounded by the SRAM queue depth.
     */
    std::vector<std::uint32_t> inflightLogWrites_;
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
