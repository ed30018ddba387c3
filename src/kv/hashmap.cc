#include "kv/hashmap.h"

#include <cstddef>

#include "common/crc32.h"
#include "common/logging.h"

namespace pmnet::kv {

PmHashmap::PmHashmap(pm::PmHeap &heap, unsigned bucket_bits)
    : StoreBase(heap, KvKind::Hashmap)
{
    if (bucket_bits == 0 || bucket_bits > 24)
        fatal("PmHashmap: bucket_bits %u out of range", bucket_bits);
    bucketCount_ = 1ull << bucket_bits;
    buckets_ = heap_.alloc(bucketCount_ * 8);
    for (std::uint64_t i = 0; i < bucketCount_; i++)
        heap_.writeObj<std::uint64_t>(buckets_ + 8 * i, pm::kNullOffset);
    heap_.flush(buckets_, bucketCount_ * 8);

    StoreHeader header = loadHeader();
    header.extra = bucket_bits;
    header.aux = buckets_;
    commitHeader(header);
}

PmHashmap::PmHashmap(pm::PmHeap &heap, pm::PmOffset header_offset)
    : StoreBase(heap, header_offset, KvKind::Hashmap)
{
    StoreHeader header = loadHeader();
    bucketCount_ = 1ull << header.extra;
    buckets_ = header.aux;
}

std::uint64_t
PmHashmap::bucketSlot(KeyRef key) const
{
    // crc32, not KeyRef's 64-bit hash: the bucket mapping is part of
    // the persistent format and pins the simulated chain lengths.
    std::uint32_t hash = crc32(key.data(), key.size());
    return buckets_ + 8 * (hash & (bucketCount_ - 1));
}

PmHashmap::Walk
PmHashmap::walkChain(std::uint64_t slot, KeyRef key) const
{
    Walk w;
    pm::PmOffset cursor = heap_.readObj<std::uint64_t>(slot);
    while (cursor != pm::kNullOffset) {
        w.node = heap_.readObj<Node>(cursor);
        if (compareKey(heap_, key.view(), w.node.key) == 0) {
            w.found = true;
            break;
        }
        w.prevOff = cursor;
        cursor = w.node.next;
    }
    w.off = cursor;
    return w;
}

void
PmHashmap::bumpCount(std::int64_t delta)
{
    StoreHeader header = loadHeader();
    header.count = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(header.count) + delta);
    commitHeader(header);
}

void
PmHashmap::put(KeyRef key, const Bytes &value)
{
    std::uint64_t slot = bucketSlot(key);
    Walk w = walkChain(slot, key);

    if (w.found) {
        // In-place value replacement: persist the new blob, then
        // atomically swap the 8-byte value pointer.
        pm::PmOffset old_val = w.node.valPtr;
        pm::PmOffset new_val = writeSizedBlob(heap_, value);
        heap_.fence();
        heap_.writeObj<std::uint64_t>(w.off + offsetof(Node, valPtr),
                                      new_val);
        heap_.flush(w.off + offsetof(Node, valPtr), 8);
        heap_.fence();
        freeSizedBlob(heap_, old_val);
        return;
    }

    // Insert at head.
    pm::PmOffset head = heap_.readObj<std::uint64_t>(slot);
    Node node;
    node.key = writeBlob(heap_, key.data(), key.size());
    node.valPtr = writeSizedBlob(heap_, value);
    node.next = head;
    pm::PmOffset node_off = heap_.alloc(sizeof(Node));
    heap_.writeObj(node_off, node);
    heap_.flush(node_off, sizeof(Node));
    heap_.fence();
    // Linearization: head pointer swap.
    heap_.writeObj<std::uint64_t>(slot, node_off);
    heap_.flush(slot, 8);
    heap_.fence();
    bumpCount(+1);
}

std::optional<Bytes>
PmHashmap::get(KeyRef key) const
{
    Walk w = walkChain(bucketSlot(key), key);
    if (w.found)
        return readSizedBlob(heap_, w.node.valPtr);
    return std::nullopt;
}

bool
PmHashmap::erase(KeyRef key)
{
    std::uint64_t slot = bucketSlot(key);
    Walk w = walkChain(slot, key);
    if (!w.found)
        return false;

    // Linearization: unlink via one pointer swap.
    std::uint64_t prev_slot = w.prevOff == pm::kNullOffset
                                  ? slot
                                  : w.prevOff + offsetof(Node, next);
    heap_.writeObj<std::uint64_t>(prev_slot, w.node.next);
    heap_.flush(prev_slot, 8);
    heap_.fence();
    freeBlob(heap_, w.node.key);
    freeSizedBlob(heap_, w.node.valPtr);
    heap_.free(w.off, sizeof(Node));
    bumpCount(-1);
    return true;
}

} // namespace pmnet::kv
