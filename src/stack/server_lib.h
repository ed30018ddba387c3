/**
 * @file
 * The PMNet server software library (paper Table I, Sections IV-A4,
 * IV-E and V-B).
 *
 * Responsibilities:
 *  - per-session reorder buffering: requests are delivered to the
 *    application handler strictly in SeqNum order (Fig 7a);
 *  - fragment reassembly of MTU-split requests (Section IV-A3);
 *  - loss detection: a persistent gap triggers Retrans requests that
 *    PMNet devices can answer from their logs (Fig 7b);
 *  - duplicate suppression with make-up server-ACKs, so resent or
 *    replayed requests are applied exactly once (Section IV-E1);
 *  - durability: the per-session applied-sequence watermark lives in
 *    the server's persistent memory and is fenced before the
 *    server-ACK leaves, making the ACK mean "committed";
 *  - crash recovery: on restore, the watermarks are reloaded from PM
 *    and a RecoveryPoll is sent to every PMNet device so logged
 *    requests are replayed in order (Fig 3, Fig 7c);
 *  - a bounded worker pool models the server's request-processing
 *    concurrency (Table II: 20 cores); requests from one session are
 *    processed serially, different sessions in parallel.
 *
 * The application plugs in as a Handler that performs the real work
 * (e.g. a KV-store operation on the PmHeap) and reports the simulated
 * service time to charge.
 */

#ifndef PMNET_STACK_SERVER_LIB_H
#define PMNET_STACK_SERVER_LIB_H

#include <deque>
#include <memory>
#include <set>
#include <map>
#include <optional>

#include "obs/metric_registry.h"
#include "pm/pm_heap.h"
#include "stack/host.h"

namespace pmnet::stack {

/** Replies cached per session for duplicate bypass requests. */
inline constexpr std::size_t kReplyCachePerSession = 32;

/**
 * Server-side logging (ServerConfig::ackOnArrival): the local PM log
 * write between a request's arrival and its early ACK.
 */
inline constexpr TickDelta kArrivalLogDelay = nanoseconds(400);

/** Server-side protocol and processing parameters. */
struct ServerConfig
{
    /** User-space dispatch cost per request (socket + demux). */
    TickDelta dispatchLatency = microseconds(16);
    /** Concurrent request-processing workers. */
    int workers = 20;
    /** How long a gap may stand before Retrans requests are sent. */
    TickDelta reorderWindow = microseconds(30);
    /** Minimum gap between repeated Retrans for the same SeqNum. */
    TickDelta retransInterval = microseconds(200);
    /** Sessions the persistent watermark table can hold. */
    std::uint32_t maxSessions = 1024;

    /** @name Server-side logging alternative (paper Fig 17b / Fig 18)
     * When ackOnArrival is set, the server logs the raw request to
     * its local PM right after the RX stack and acknowledges the
     * client immediately, moving only the *processing* time off the
     * critical path: the ACK leaves kArrivalLogDelay after arrival.
     * arrivalAckExtraDelay models the replication round among logging
     * servers in the 3-way variant.
     *  @{
     */
    bool ackOnArrival = false;
    TickDelta arrivalAckExtraDelay = 0;
    /** @} */
};

/**
 * Aggregate server-side statistics. Private to the library — readers
 * go through obs::MetricRegistry ("server.*" after
 * ServerLib::registerMetrics), the one public metrics surface.
 */
struct ServerStats
{
    obs::Counter updatesApplied;
    obs::Counter bypassApplied;
    obs::Counter duplicatesDropped;
    obs::Counter hashRejected;
    obs::Counter makeupAcks;
    obs::Counter replayedReplies;
    obs::Counter retransRequested;
    obs::Counter acksSent;
    obs::Counter responsesSent;
    obs::Counter recoveries;
};

/** The server-side PMNet library. One instance per server host. */
class ServerLib
{
  public:
    /** What the application handler did with a request. */
    struct HandlerResult
    {
        /** Simulated processing time beyond the dispatch cost. */
        TickDelta cost = 0;
        /** Reply payload (mandatory for bypass requests). */
        std::optional<Bytes> response;
    };

    /**
     * Application request handler. Executes the real work
     * synchronously and returns its simulated cost.
     */
    using Handler = std::function<HandlerResult(
        std::uint16_t session, bool is_update, const Bytes &payload)>;

    ServerLib(Host &host, pm::PmHeap &heap, ServerConfig config = {});

    void setHandler(Handler handler) { handler_ = std::move(handler); }

    /** Devices to poll with RecoveryPoll after a restart. */
    void setDevices(std::vector<net::NodeId> devices);

    /** Hook invoked after a power-restore (app re-roots its data). */
    void setRecoveryHook(std::function<void()> hook);

    /** @name Application persistent root
     * The heap root holds the library superblock; the application's
     * own root object is registered through these.
     *  @{
     */
    void setAppRoot(pm::PmOffset root);
    pm::PmOffset appRoot() const;
    /** @} */

    /** Persisted applied watermark of @p session (0 = nothing). */
    std::uint32_t appliedSeq(std::uint16_t session) const;

    /** Requests queued but not yet processed (all sessions). */
    std::size_t backlog() const;

    /** Attach each stat under "<prefix>.<name>" in @p registry. */
    void registerMetrics(obs::MetricRegistry &registry,
                         std::string_view prefix);

    /**
     * Attach the flight recorder (nullptr detaches): the library
     * stamps ServerStart when a worker dequeues a request and
     * ServerEnd when its dispatch+handler cost has been charged.
     */
    void setRecorder(obs::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    const ServerConfig &config() const { return config_; }

  private:
    struct ReadyRequest
    {
        std::uint16_t session = 0;
        bool isUpdate = true;
        std::uint32_t firstSeq = 0;
        std::uint32_t lastSeq = 0;
        std::vector<std::uint32_t> fragHashes;
        Bytes payload;
        std::uint64_t requestId = 0;
        net::NodeId client = net::kInvalidNode;
    };

    struct Session
    {
        std::uint32_t applied = 0;      ///< persisted watermark
        std::uint32_t nextExpected = 1; ///< assembly watermark
        net::NodeId client = net::kInvalidNode;
        std::map<std::uint32_t, net::PacketPtr> pending;
        std::deque<ReadyRequest> ready;
        bool busy = false;
        bool queued = false;
        sim::EventHandle gapTimer;
        std::map<std::uint32_t, Tick> retransAskedAt;
        /**
         * Bypass sequence space (independent of the update stream):
         * replyCache remembers answered bypass seqs for duplicate
         * replay; bypassInFlight dedups retransmits of a bypass that
         * is still queued or in service.
         */
        std::map<std::uint32_t, Bytes> replyCache;
        std::set<std::uint32_t> bypassInFlight;
    };

    void onReceive(const net::PacketPtr &pkt);
    Session &sessionFor(std::uint16_t sid);
    Session &sessionSlot(std::uint16_t sid);
    void handleDuplicate(const net::Packet &pkt);
    void handleBypassArrival(std::uint16_t sid, Session &session,
                             const net::PacketPtr &pkt);
    void tryAssemble(std::uint16_t sid, Session &session);
    void scheduleGapCheck(std::uint16_t sid);
    void gapCheck(std::uint16_t sid);
    void enqueueRunnable(std::uint16_t sid);
    void pump();
    void finishRequest(std::uint16_t sid, const ReadyRequest &req,
                       HandlerResult result);
    void persistApplied(std::uint16_t sid, std::uint32_t seq);
    void initSuperblock();
    void onPowerFailApp();
    void onPowerRestoreApp();

    Host &host_;
    pm::PmHeap &heap_;
    ServerConfig config_;
    ServerStats stats_;
    obs::FlightRecorder *recorder_ = nullptr;
    Handler handler_;
    std::vector<net::NodeId> devices_;
    std::function<void()> recoveryHook_;

    /**
     * Per-sid session table, indexed directly by the 16-bit session
     * id: the per-packet session lookup is one bounds check and one
     * pointer load instead of an ordered-map walk. Slots are created
     * on first contact; ascending-sid iteration matches the previous
     * std::map order.
     */
    std::vector<std::unique_ptr<Session>> sessions_;
    std::deque<std::uint16_t> runnable_;
    int busyWorkers_ = 0;
    std::uint64_t epoch_ = 0;

    struct Superblock
    {
        std::uint64_t magic;
        std::uint64_t tableOff;
        std::uint32_t maxSessions;
        std::uint32_t pad;
        std::uint64_t appRoot;
    };
    static constexpr std::uint64_t kSuperMagic = 0x504D4E4554535256ull;

    pm::PmOffset superOff_ = pm::kNullOffset;
    pm::PmOffset tableOff_ = pm::kNullOffset;
};

} // namespace pmnet::stack

#endif // PMNET_STACK_SERVER_LIB_H
