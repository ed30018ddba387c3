/**
 * @file
 * Chain-repair orchestration for a sharded PMNet fabric (DESIGN.md
 * §14).
 *
 * When a device in a shard's replication chain suffers a permanent
 * hardware failure, the shard is marked Failed in the ShardMap:
 * clients park new requests for the shard and hold retries (the chain
 * is a black hole). Once the operator swaps the unit (replaceUnit —
 * it comes back with an empty log), the shard moves to Resilvering
 * and this coordinator drives the repair to completion:
 *
 *  1. wait until every device in the shard's chain is powered;
 *  2. pick a surviving source device (any powered peer) and start a
 *     resilver stream (PmnetDevice::resilverTo) toward the
 *     replacement, unless one is already running;
 *  3. once the stream goes quiet, verify: every live entry of every
 *     surviving peer's log must be present in the replacement's log.
 *     Missing entries (writes raced the stream snapshot, or the
 *     source crashed mid-push) simply start another stream — pushes
 *     are idempotent, so restarting is always safe;
 *  4. when verification passes, the shard returns to Healthy and
 *     parked client traffic flushes via the retry timers.
 *
 * poll() runs between simulation windows, outside any event, so it
 * sees every device's log at a quiescent point. The state machine
 * survives arbitrary additional crashes mid-repair — a crash of the
 * source or target mid-stream just re-enters step 1/2 on the next
 * poll.
 */

#ifndef PMNET_FAULT_CHAIN_REPAIR_H
#define PMNET_FAULT_CHAIN_REPAIR_H

#include "testbed/system.h"

namespace pmnet::fault {

/** Drives shard chain repairs to completion between sim windows. */
class ChainRepairCoordinator
{
  public:
    explicit ChainRepairCoordinator(testbed::Testbed &bed) : bed_(bed) {}

    /**
     * Register a repair: @p target (index within the shard's chain)
     * of @p shard needs its log re-silvered from the surviving peers.
     * The shard must already be marked Resilvering by the caller.
     */
    void beginRepair(unsigned shard, std::size_t target);

    /**
     * Advance every registered repair one step (see file comment).
     * Call only between simulation windows. Returns true when no
     * repair remains active.
     */
    bool poll();

    bool idle() const { return repairs_.empty(); }

    /** Resilver streams started (>1 per repair = restarts). */
    std::uint64_t streamsStarted() const { return streamsStarted_; }
    std::uint64_t repairsCompleted() const { return repairsCompleted_; }

  private:
    struct Repair
    {
        unsigned shard;
        std::size_t target;
    };

    /** Every peer-live log entry present in the target's log? */
    bool verified(const Repair &repair) const;

    testbed::Testbed &bed_;
    std::vector<Repair> repairs_;
    std::uint64_t streamsStarted_ = 0;
    std::uint64_t repairsCompleted_ = 0;
};

} // namespace pmnet::fault

#endif // PMNET_FAULT_CHAIN_REPAIR_H
