/**
 * @file
 * Per-request flight recorder (DESIGN.md section 11).
 *
 * A fixed-size slab of RequestTrace records, keyed by the simulation's
 * unique request id (the (session, seq) pair is carried as metadata —
 * update and bypass requests number in independent sequence spaces,
 * so (session, seq) alone is ambiguous). Components stamp ticks at
 * the paper's pipeline boundaries as a request flows through them:
 *
 *   ClientSend    ClientLib::sendUpdate / bypass entry
 *   ClientTx      first fragment leaves the client NIC (TX stack done)
 *   SwitchIngress first arrival at the plain ToR/merge switch
 *   DeviceIngress first arrival at a PMNet device pipeline
 *   PersistStart  write admitted to the device's SRAM log queue
 *   PersistStage  PM write completed (log entry staged, pre-fence)
 *   PersistDone   covering fence retired, PMNet-ACK generated
 *   ServerRx      request arrives at the server NIC (pre-RX stack)
 *   ServerStart   a server worker picks the request up
 *   ServerEnd     handler + dispatch cost charged, replies leave
 *   AckRx         completing ACK/Response arrives at the client NIC
 *   Complete      ClientLib completion (same tick the driver records)
 *
 * Latency attribution (the Fig 15/16 decomposition): the checkpoints
 * are walked in the fixed order above, skipping absent stamps and any
 * stamp earlier than the running clock (parallel ack/server paths can
 * race); each surviving interval is charged to the bucket of its
 * *later* checkpoint:
 *
 *   client_stack   -> ClientTx, Complete
 *   wire           -> SwitchIngress, DeviceIngress, ServerRx, AckRx
 *   queueing       -> PersistStart, ServerStart
 *   device_persist -> PersistStage, PersistDone
 *   server         -> ServerEnd
 *
 * device_persist further splits into stage (interval ending at
 * PersistStage: the PM write itself) and fence-wait (interval ending
 * at PersistDone: group-commit epoch close + fence). Per-op fencing
 * stamps both at the same tick, so its fence-wait is zero.
 *
 * Because the walk partitions [ClientSend, Complete] into disjoint
 * intervals, the five buckets sum to the end-to-end latency *exactly*
 * (tick-accurate) by construction — the property the breakdown tests
 * assert. When a request completes through PMNet ACKs alone, the
 * server-side stamps (ServerRx/ServerStart/ServerEnd) describe a
 * parallel path that did not gate completion and are excluded.
 *
 * Traces freeze at Complete: late stamps (server processing finishing
 * after a PMNet-ACK completion, make-up acks) are dropped.
 *
 * Hot-path cost: begin/stamp/complete are allocation-free (slab +
 * open-addressing index, both sized at construction) and O(1); a
 * component without a recorder pays one predictable null test per
 * hook (bench/micro_obs measures it).
 */

#ifndef PMNET_OBS_FLIGHT_RECORDER_H
#define PMNET_OBS_FLIGHT_RECORDER_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "obs/json.h"

namespace pmnet::obs {

/** Pipeline checkpoints, in canonical walk order. */
enum class Stamp : std::uint8_t {
    ClientSend = 0,
    ClientTx,
    SwitchIngress,
    DeviceIngress,
    PersistStart,
    PersistStage,
    PersistDone,
    ServerRx,
    ServerStart,
    ServerEnd,
    AckRx,
    Complete,
};

inline constexpr std::size_t kStampCount = 12;

/** The five-way latency decomposition of one request (Fig 15/16). */
struct Breakdown
{
    TickDelta clientStack = 0;
    TickDelta wire = 0;
    TickDelta queueing = 0;
    TickDelta devicePersist = 0;
    TickDelta server = 0;
    /** Sub-split of devicePersist (stage + fence == devicePersist). */
    TickDelta devicePersistStage = 0;
    TickDelta devicePersistFence = 0;

    TickDelta
    total() const
    {
        return clientStack + wire + queueing + devicePersist + server;
    }

    Breakdown &
    operator+=(const Breakdown &other)
    {
        clientStack += other.clientStack;
        wire += other.wire;
        queueing += other.queueing;
        devicePersist += other.devicePersist;
        server += other.server;
        devicePersistStage += other.devicePersistStage;
        devicePersistFence += other.devicePersistFence;
        return *this;
    }
};

/** One request's recorded checkpoints. */
struct RequestTrace
{
    static constexpr Tick kUnset = -1;

    std::uint64_t requestId = 0; ///< 0 = free slot
    std::uint16_t session = 0;
    /**
     * Owning shard in a multi-shard fabric (0 otherwise). The request
     * id itself is re-keyed with the shard (bits [32,40), see
     * ClientLib::newRequestId), so the open-addressing id index keeps
     * two shards' equal local seqs on distinct traces without
     * widening every stamp; the field here is attribution metadata.
     */
    std::uint16_t shard = 0;
    std::uint32_t firstSeq = 0;
    bool isUpdate = false;
    bool completed = false;
    /** Completion came from PMNet ACKs alone (no server ACK needed). */
    bool completedByPmnetAck = false;
    std::array<Tick, kStampCount> at{};

    bool
    has(Stamp stamp) const
    {
        return at[static_cast<std::size_t>(stamp)] != kUnset;
    }

    Tick
    tick(Stamp stamp) const
    {
        return at[static_cast<std::size_t>(stamp)];
    }

    /** Complete - ClientSend. @pre completed. */
    TickDelta endToEnd() const;

    /**
     * Exact interval partition of [ClientSend, Complete] into the
     * five buckets; zeros when the trace never completed.
     */
    Breakdown breakdown() const;
};

/** Fixed-capacity slab of in-flight and completed request traces. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = 4096);

    /**
     * Open a trace for @p request_id and record ClientSend at @p now.
     * Evicts the oldest trace when the slab is full (wrap-around).
     * request_id 0 is reserved/invalid and ignored. @p shard tags the
     * trace with the owning fabric shard (0 without sharding).
     */
    void begin(std::uint64_t request_id, std::uint16_t session,
               std::uint32_t first_seq, bool is_update, Tick now,
               std::uint16_t shard = 0);

    /**
     * Record @p stamp at @p now. Unknown ids and frozen (completed)
     * traces are silent no-ops. First-wins for entry checkpoints,
     * last-wins for the repeatable ones (PersistDone, ServerRx,
     * AckRx).
     */
    void stampAt(std::uint64_t request_id, Stamp stamp, Tick now);

    /**
     * Record Complete, freeze the trace, and — when accumulation is
     * on — fold its breakdown into the window accumulator.
     */
    void complete(std::uint64_t request_id, Tick now, bool by_pmnet_ack);

    /** @name Measurement-window aggregation
     *  @{
     */
    struct Accum
    {
        std::uint64_t count = 0;
        Breakdown sums;
        /** Sum of end-to-end latencies (== sums.total() invariant). */
        TickDelta totalLatency = 0;

        /** Mean per-segment breakdown (ns) of the window. */
        Json toJson() const;
    };

    void setAccumulating(bool on) { accumulating_ = on; }
    void resetAccum() { accum_ = Accum{}; }
    const Accum &accum() const { return accum_; }
    /** @} */

    /** @name Inspection (tests, tools)
     *  @{
     */
    std::size_t capacity() const { return slots_.size(); }
    std::uint64_t beginCount() const { return begins_; }
    std::uint64_t completeCount() const { return completes_; }
    std::uint64_t evictions() const { return evictions_; }

    const RequestTrace *find(std::uint64_t request_id) const;

    /** Visit every live trace in slab order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const RequestTrace &trace : slots_) {
            if (trace.requestId != 0)
                fn(trace);
        }
    }
    /** @} */

    /** Mean per-segment breakdown of the accumulated window. */
    Json accumJson() const;

  private:
    std::size_t probeFor(std::uint64_t request_id) const;
    void indexInsert(std::uint64_t request_id, std::int32_t slot);
    void indexErase(std::uint64_t request_id);
    RequestTrace *lookup(std::uint64_t request_id);

    bool accumulating_ = false;

    std::vector<RequestTrace> slots_;
    /** Open-addressing index: request id -> slot, -1 = empty. */
    std::vector<std::int32_t> table_;
    std::size_t tableMask_ = 0;
    std::size_t nextSlot_ = 0;

    std::uint64_t begins_ = 0;
    std::uint64_t completes_ = 0;
    std::uint64_t evictions_ = 0;

    Accum accum_;
};

} // namespace pmnet::obs

#endif // PMNET_OBS_FLIGHT_RECORDER_H
