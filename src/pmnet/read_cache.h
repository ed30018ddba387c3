/**
 * @file
 * The four-state in-switch read cache (paper Section IV-D, Fig 11).
 *
 * Each entry, indexed by application key, is in one of four states:
 *
 *  - Invalid:   no usable value.
 *  - Pending:   the value of an update logged by PMNet but not yet
 *               committed by the server. Serves reads.
 *  - Persisted: the value the server has committed. Serves reads.
 *  - Stale:     multiple updates are in flight (or an update bypassed
 *               logging), so the cached value may be behind. Does not
 *               serve reads; cleared to Invalid by the next
 *               server-ACK (T6).
 *
 * Transitions T1-T6 follow Fig 11; onUpdate() additionally handles the
 * reproduction's "update could not be logged" case by marking the
 * entry Stale, which preserves the invariant that a served value is
 * never older than the server's committed value and is itself either
 * logged or committed.
 *
 * Capacity is bounded with LRU eviction; entries in Pending/Stale are
 * never evicted (their state is needed for consistency when the
 * server-ACK arrives), matching the log's role as the cache's backing
 * persistence.
 *
 * Storage is the key fast path (common/key.h): one FlatKeyTable probe
 * per operation using the KeyRef hash computed where the packet was
 * parsed, and an LRU that is *intrusive* to the entry slab (prev/next
 * are 32-bit slab indices) — a touch relinks two entries and performs
 * zero allocations, where the previous std::unordered_map +
 * std::list<std::string> design paid a list-node allocation and a
 * second string hash on every touch.
 */

#ifndef PMNET_PMNET_READ_CACHE_H
#define PMNET_PMNET_READ_CACHE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/key.h"

namespace pmnet::pmnetdev {

/** Entry states from Fig 11. */
enum class CacheState : std::uint8_t { Invalid, Pending, Persisted, Stale };

const char *cacheStateName(CacheState state);

/** Key-indexed, LRU-bounded cache with the Fig 11 state machine. */
class ReadCache
{
  public:
    explicit ReadCache(std::size_t capacity = 65536);

    /** @name Hot path (precomputed-hash keys, zero-copy values)
     * The KeyRef (and value view) only need to live for the call.
     *  @{
     */

    /**
     * An update-req for @p key passed through the device.
     *
     * @param logged true when the device logged the request (and so
     *               will early-ACK it); false when it bypassed.
     */
    void onUpdate(KeyRef key, std::string_view value, bool logged);

    /** A server-ACK for an update to @p key passed through. */
    void onServerAck(KeyRef key);

    /** A server read Response for @p key passed through (cache fill). */
    void onReadResponse(KeyRef key, std::string_view value);

    /**
     * Look up @p key for a read.
     * @return the value when the entry may serve reads
     *         (Pending/Persisted), nullptr otherwise. The pointer is
     *         valid until the next non-const cache call.
     */
    const Bytes *lookup(KeyRef key);

    /** Current state of @p key (Invalid when absent). */
    CacheState stateOf(KeyRef key) const;
    /** @} */

    /** @name std::string adapters (tests and non-hot callers)
     *  @{
     */
    void
    onUpdate(const std::string &key, const Bytes &value, bool logged)
    {
        onUpdate(KeyRef(key), viewOf(value), logged);
    }

    void onServerAck(const std::string &key) { onServerAck(KeyRef(key)); }

    void
    onReadResponse(const std::string &key, const Bytes &value)
    {
        onReadResponse(KeyRef(key), viewOf(value));
    }

    const Bytes *lookup(const std::string &key) { return lookup(KeyRef(key)); }

    CacheState
    stateOf(const std::string &key) const
    {
        return stateOf(KeyRef(key));
    }
    /** @} */

    std::size_t size() const { return table_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** One entry of a dump() snapshot. */
    struct DumpEntry
    {
        std::string key;
        CacheState state = CacheState::Invalid;
        Bytes value;
    };

    /**
     * Snapshot every entry, sorted by key. For the fault harness's
     * staleness audit: after a failure it compares each Persisted
     * entry against the recovered store. Sorted so two deterministic
     * runs render byte-identical reports.
     */
    std::vector<DumpEntry> dump() const;

    /** Drop everything (device power failure). */
    void clear();

    /** @name Statistics
     *  @{
     */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** @} */

  private:
    /** Null slab index / list terminator. */
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    struct Payload
    {
        CacheState state = CacheState::Invalid;
        Bytes value;
        /** Intrusive LRU links: slab indices, no allocation. */
        std::uint32_t lruPrev = kNil;
        std::uint32_t lruNext = kNil;
    };

    using Table = FlatKeyTable<Payload>;
    using Index = Table::Index;

    static std::string_view
    viewOf(const Bytes &bytes)
    {
        return {reinterpret_cast<const char *>(bytes.data()), bytes.size()};
    }

    Index touch(KeyRef key);
    void evictIfNeeded();
    void unlink(Index idx);
    void pushFront(Index idx);

    std::size_t capacity_;
    Table table_;
    /** LRU order: head is most recent, tail least recent. */
    Index lruHead_ = kNil;
    Index lruTail_ = kNil;
};

} // namespace pmnet::pmnetdev

#endif // PMNET_PMNET_READ_CACHE_H
