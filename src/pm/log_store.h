/**
 * @file
 * The network device's persistent request log (paper Section IV-B).
 *
 * A direct-mapped array of slots indexed by the PMNet header's HashVal
 * (hardware-style indexing: hash modulo slot count). Each slot holds
 * one logged update-request packet. Per the paper:
 *
 *  - collision with a live entry, or a full log, means the packet is
 *    forwarded *without* logging (and without an early ACK);
 *  - a server-ACK invalidates the matching entry;
 *  - recovery reads surviving entries back out and resends them.
 *
 * Contents are persistent: a device power failure does not clear
 * committed slots (insertion timing/queueing is modeled separately by
 * LogQueue + the device pipeline).
 *
 * The slot array is modeled, not allocated: a one-bit-per-slot
 * occupancy bitmap (128 KB for the default 2 GB log) answers "is this
 * slot live?", and an open-addressing table keyed by slot index holds
 * a LogEntry only for live slots. Memory follows the live set, not
 * the capacity.
 */

#ifndef PMNET_PM_LOG_STORE_H
#define PMNET_PM_LOG_STORE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.h"
#include "pm/cost_model.h"

namespace pmnet::pm {

/** One occupied log slot. */
struct LogEntry
{
    std::uint32_t hashVal = 0;
    net::PacketPtr packet;
    Tick loggedAt = 0;
};

/** Outcome of an insertion attempt. */
enum class LogInsertResult {
    Ok,        ///< entry committed
    Collision, ///< slot occupied by a different live request
    Duplicate, ///< same request already logged (idempotent)
    TooLarge,  ///< packet exceeds the slot size
};

/**
 * Observer of log mutations. In gateway mode the device journal
 * (gateway::LogJournal) mirrors every committed/invalidated entry to
 * an append-only file through this seam, so a SIGKILLed daemon can
 * rebuild the log on restart. Unset in sim mode: one branch per
 * mutation, no behavior change.
 */
class LogStoreObserver
{
  public:
    virtual ~LogStoreObserver() = default;

    /** A new entry was committed (insert returned Ok). */
    virtual void onLogInsert(const LogEntry &entry) = 0;

    /** The entry for @p hash was invalidated. */
    virtual void onLogErase(std::uint32_t hash) = 0;

    /** Every entry was dropped (fresh device). */
    virtual void onLogClear() = 0;
};

/** HashVal-indexed persistent log. */
class PmLogStore
{
  public:
    explicit PmLogStore(DevicePmConfig config = {});

    /** Install @p observer (nullptr to remove). */
    void setObserver(LogStoreObserver *observer) { observer_ = observer; }

    /** Attempt to log @p pkt under @p hash. */
    LogInsertResult insert(std::uint32_t hash, net::PacketPtr pkt,
                           Tick now);

    /**
     * Entry for @p hash, or nullptr when the slot is empty/mismatched.
     * Valid until the next insert(), erase() or clear().
     */
    const LogEntry *lookup(std::uint32_t hash) const;

    /** True when the direct-mapped slot for @p hash is unoccupied. */
    bool slotFree(std::uint32_t hash) const;

    /**
     * Invalidate the entry for @p hash.
     * @return true if a matching entry existed.
     */
    bool erase(std::uint32_t hash);

    /**
     * Visit every live entry in ascending slot index, the order that
     * re-forward scans, resilver streams, chain-repair checks and
     * journal compaction walk the log in. (Recovery replays in
     * per-session sequence order instead; see
     * PmnetDevice::replayOrder.) Walks the occupancy bitmap, skipping
     * empty 64-slot runs in one test, and stops after the last live
     * entry, so an empty log costs nothing and a nearly-empty multi-GB
     * log scans in microseconds. @p fn must not insert or erase.
     */
    void forEach(const std::function<void(const LogEntry &)> &fn) const;

    /** Live entries. */
    std::uint64_t size() const { return live_; }

    /** Total slots. */
    std::uint64_t capacity() const { return slotCount_; }

    /** Fraction of slots holding a live entry, in [0, 1]. O(1). */
    double
    occupancy() const
    {
        return static_cast<double>(size()) /
               static_cast<double>(slotCount_);
    }

    bool full() const { return size() == slotCount_; }

    /** Drop every entry (fresh device). */
    void clear();

    const DevicePmConfig &config() const { return config_; }

    /** @name Occupancy statistics
     *  @{
     */
    std::uint64_t insertOk = 0;
    std::uint64_t insertCollision = 0;
    std::uint64_t insertDuplicate = 0;
    std::uint64_t highWater = 0;
    /** @} */

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** One live slot of the entry table; kNoSlot marks a free cell. */
    struct LiveSlot
    {
        std::size_t index = kNoSlot;
        LogEntry entry;
    };

    std::size_t indexFor(std::uint32_t hash) const;
    bool occupiedAt(std::size_t index) const;
    void markOccupied(std::size_t index, bool occupied);
    /**
     * First cell on slot @p index's probe path whose index is @p want:
     * @p index itself (the slot must be live) or kNoSlot (a free cell).
     */
    std::size_t probe(std::size_t index, std::size_t want) const;
    void grow();

    DevicePmConfig config_;
    LogStoreObserver *observer_ = nullptr;
    std::size_t slotCount_;
    /** One bit per slot; lets scans skip 64 empty slots at a time. */
    std::vector<std::uint64_t> occupied_;
    /**
     * Live entries, open addressing on the slot index: a power-of-two
     * cell count kept at least twice the live count, linear probing,
     * entries inline. The bitmap answers membership, so a probe only
     * ever runs for a live slot and stops at that slot's cell: erase()
     * simply empties the cell, with no tombstone or backward shift.
     */
    std::vector<LiveSlot> cells_ = std::vector<LiveSlot>(16);
    std::uint64_t live_ = 0;
};

} // namespace pmnet::pm

#endif // PMNET_PM_LOG_STORE_H
