/**
 * @file
 * Epoch-based group commit for the device persist path.
 *
 * The per-request discipline (stage a log write, fence, ack) puts one
 * sfence on the critical path of every UpdateReq. *Correct, Fast
 * Remote Persistence* shows the doorbell-batching alternative: stage
 * writes into an open epoch, retire the whole batch with a single
 * fence when the epoch closes, and only then release the acks. P1
 * acked-durability holds by construction — an ack cannot leave before
 * the fence that covers its log write has retired.
 *
 * CommitEpoch keeps only the close policy and its counters. It holds
 * no ops, no acks and no fence: the owner keeps its staged writes,
 * decides *when* to close (on StageResult::shouldClose, or from a
 * doorbell timer it arms on epoch open and checks with stillOpen()),
 * runs the fence, and releases the acks once the fence retires. The
 * device keeps one pending-write list for that (a write's phase:
 * queued in SRAM, staged, fencing) and models fence latency on
 * simulated time; the crash-matrix harness calls a real
 * PmHeap::fence() after each close so the boundary hooks fire.
 * `acksDeferred` counts the ops whose ack left at a later tick than
 * the op was staged, which close() derives from its release tick.
 */

#ifndef PMNET_PM_COMMIT_EPOCH_H
#define PMNET_PM_COMMIT_EPOCH_H

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace pmnet::pm {

/** Why an epoch closed (persist.epoch.closed.* metric split). */
enum class EpochCloseReason : std::uint8_t
{
    Bytes,    ///< staged bytes reached the threshold
    Ops,      ///< staged op count reached the threshold
    Doorbell, ///< max-hold timer fired with the epoch still open
    Drain,    ///< explicit flush (shutdown, recovery, test teardown)
};

/** Name for reports ("bytes", "ops", "doorbell", "drain"). */
const char *epochCloseReasonName(EpochCloseReason reason);

struct CommitEpochConfig
{
    /** Close when staged log bytes reach this threshold. */
    std::size_t maxBytes = 4096;
    /** Close when this many ops are staged. */
    std::uint32_t maxOps = 8;
    /** Doorbell: never hold an ack longer than this past epoch open. */
    TickDelta maxHold = 2000;
};

/** Monotonic counters for the persist.epoch.* registry subtree. */
struct CommitEpochStats
{
    std::uint64_t epochsClosed = 0;
    std::uint64_t closedByBytes = 0;
    std::uint64_t closedByOps = 0;
    std::uint64_t closedByDoorbell = 0;
    std::uint64_t closedByDrain = 0;
    std::uint64_t opsCommitted = 0;
    std::uint64_t bytesCommitted = 0;
    /** Ops whose ack left at a later tick than the op was staged. */
    std::uint64_t acksDeferred = 0;
    std::uint64_t opsAbandoned = 0;   ///< staged-unfenced ops lost to power
    std::uint64_t maxBatchOps = 0;
    std::uint64_t maxBatchBytes = 0;
    std::uint64_t holdTicksTotal = 0; ///< sum of (close - open) per epoch
    std::uint64_t maxHoldTicks = 0;
};

class CommitEpoch
{
  public:
    /** What stage() tells the caller to do next. */
    struct StageResult
    {
        /** First op of a fresh epoch — arm the doorbell timer. */
        bool opened = false;
        /** Bytes/ops threshold hit — close the epoch now. */
        bool shouldClose = false;
        /** Identity of the open epoch (see stillOpen()). */
        std::uint64_t epochSeq = 0;
    };

    explicit CommitEpoch(CommitEpochConfig config = {});

    /**
     * Stage one log write of @p bytes at @p now into the open epoch
     * (opening one if none is). Never closes the epoch itself — the
     * caller reacts to StageResult::shouldClose so it can model the
     * fence first. Ticks must not decrease from one stage to the next.
     */
    StageResult stage(std::size_t bytes, Tick now);

    /**
     * Close the open epoch at @p now and count it. Its fence retires,
     * and the owner releases its acks, at @p release_at (>= @p now):
     * at a later tick every op was deferred, at @p now only the ops
     * staged before it.
     *
     * @return ops closed (0 when no epoch was open).
     */
    std::size_t close(EpochCloseReason reason, Tick now, Tick release_at);

    /**
     * Power failure: drop the open epoch's ops. Their log writes were
     * never covered by a fence, so the caller must roll them back and
     * never ack them.
     *
     * @return ops abandoned.
     */
    std::size_t abandon();

    /**
     * True while epoch @p seq (a StageResult::epochSeq) is still the
     * open one: a doorbell timer armed for it must not close a later
     * epoch after a threshold close beat it.
     */
    bool stillOpen(std::uint64_t seq) const
    {
        return openOps_ != 0 && epochSeq_ == seq;
    }

    bool open() const { return openOps_ != 0; }
    std::size_t openOps() const { return openOps_; }
    std::size_t openBytes() const { return openBytes_; }
    const CommitEpochConfig &config() const { return config_; }
    const CommitEpochStats &stats() const { return stats_; }

  private:
    CommitEpochConfig config_;
    std::size_t openOps_ = 0;
    std::size_t openBytes_ = 0;
    Tick openedAt_ = 0;
    Tick lastStagedAt_ = 0;
    /** Open ops staged before lastStagedAt_ (deferred by a close then). */
    std::size_t opsBeforeLastStage_ = 0;
    std::uint64_t epochSeq_ = 0;
    CommitEpochStats stats_;
};

} // namespace pmnet::pm

#endif // PMNET_PM_COMMIT_EPOCH_H
