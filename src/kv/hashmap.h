/**
 * @file
 * Persistent chained hashmap (PMDK "hashmap" workload analogue).
 *
 * A fixed power-of-two bucket array of head pointers, each chaining
 * nodes of {key blob, value pointer, next}. Linearization:
 *  - insert: new node persisted, then one 8-byte head swap;
 *  - value update: new sized blob persisted, then one 8-byte value
 *    pointer swap in place;
 *  - erase: one 8-byte next/head pointer swap.
 *
 * This structure is on the key fast path (common/key.h): get/put/erase
 * take a KeyRef so no lookup ever materializes a temporary
 * std::string, and the chain walk compares key bytes in place (no
 * allocation per node). The persistent layout and the crc32 bucket
 * mapping are kept bit-for-bit as before: the PmHeap cost model
 * charges simulated time per PM line touched, so the refactor speeds
 * up the host without changing modeled PM traffic or figure
 * statistics.
 *
 * The heap is the map's only state: no call keeps chain contents
 * past its return, so an instance that outlives PmHeap::crash()
 * reads exactly what the durable image holds.
 */

#ifndef PMNET_KV_HASHMAP_H
#define PMNET_KV_HASHMAP_H

#include "kv/store_base.h"

namespace pmnet::kv {

/** Persistent hashmap with chaining. */
class PmHashmap : public StoreBase
{
  public:
    /** Create with 2^bucket_bits buckets. */
    explicit PmHashmap(pm::PmHeap &heap, unsigned bucket_bits = 16);

    /** Re-open after a crash. */
    PmHashmap(pm::PmHeap &heap, pm::PmOffset header_offset);

    /** KeyRef fast path: bucket by the precomputed hash. */
    void put(KeyRef key, const Bytes &value) override;
    std::optional<Bytes> get(KeyRef key) const override;
    bool erase(KeyRef key) override;

  private:
    /**
     * Chain node — the exact persistent layout (and therefore the
     * exact simulated PM line traffic) of the original string-keyed
     * implementation. The key fast path deliberately does NOT store
     * the KeyRef hash here or change the bucket mapping: the PmHeap
     * cost model charges per line read, so any layout or mapping
     * change would alter simulated service times and shift figure
     * statistics. The wall-clock win comes purely from host-side
     * work: no std::string materialization per chain step.
     */
    struct Node
    {
        BlobRef key;
        std::uint64_t valPtr;
        std::uint64_t next;
    };

    /** Result of one full chain walk for a key. */
    struct Walk
    {
        /** A node holding the key was found. */
        bool found = false;
        /** Offset of the matched node (kNullOffset if none). */
        pm::PmOffset off = pm::kNullOffset;
        /** Offset of the node before the match (kNullOffset = head). */
        pm::PmOffset prevOff = pm::kNullOffset;
        /** Contents of the matched node. */
        Node node{};
    };

    std::uint64_t bucketSlot(KeyRef key) const;
    void bumpCount(std::int64_t delta);

    /**
     * Walk @p slot's chain looking for @p key. Every visited node
     * costs its record and its whole stored key (compareKey reads
     * the key even when the lengths differ): the PM lines the modeled
     * server reads.
     */
    Walk walkChain(std::uint64_t slot, KeyRef key) const;

    std::uint64_t bucketCount_;
    pm::PmOffset buckets_;
};

} // namespace pmnet::kv

#endif // PMNET_KV_HASHMAP_H
