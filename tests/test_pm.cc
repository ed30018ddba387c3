/**
 * @file
 * Unit tests for the PM substrate: heap persistence/crash semantics,
 * cost accounting, the device log store, the SRAM log queues and the
 * BDP sizing math from the paper's Section V-A.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "net/packet.h"
#include "pm/commit_epoch.h"
#include "pm/cost_model.h"
#include "pm/log_queue.h"
#include "pm/log_store.h"
#include "pm/pm_heap.h"

namespace pmnet::pm {
namespace {

// ------------------------------------------------------------ pm heap

TEST(PmHeap, WriteReadRoundTrip)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    std::uint64_t value = 0xFEEDFACE;
    heap.writeObj(off, value);
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), value);
}

TEST(PmHeap, UnflushedWriteLostOnCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 42);
    // No flush, no fence.
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 0u);
}

TEST(PmHeap, FlushWithoutFenceLostOnCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 42);
    heap.flush(off, 8);
    // Crash before the fence: staged lines are dropped.
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 0u);
}

TEST(PmHeap, FlushedAndFencedSurvivesCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.persistObj<std::uint64_t>(off, 42);
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 42u);
}

TEST(PmHeap, FenceCapturesFlushTimeValue)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 1);
    heap.flush(off, 8);
    // Overwrite after the flush but within the same cache line before
    // fencing: clwb semantics persist the flush-time content only if
    // no further flush happens; our model captured "1".
    heap.writeObj<std::uint64_t>(off, 2);
    heap.fence();
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 1u);
}

TEST(PmHeap, RootSurvivesCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(128);
    heap.setRoot(off);
    heap.crash();
    EXPECT_EQ(heap.root(), off);
}

TEST(PmHeap, AllocationsDoNotOverlap)
{
    PmHeap heap(1 << 20);
    PmOffset a = heap.alloc(100);
    PmOffset b = heap.alloc(100);
    EXPECT_GE(b, a + 100);
}

TEST(PmHeap, AllocAfterCrashDoesNotReuseLiveSpace)
{
    PmHeap heap(1 << 20);
    PmOffset a = heap.alloc(64);
    heap.persistObj<std::uint64_t>(a, 7);
    heap.crash();
    PmOffset b = heap.alloc(64);
    EXPECT_NE(a, b);
    EXPECT_EQ(heap.readObj<std::uint64_t>(a), 7u);
}

TEST(PmHeap, FreeListReusesBlocks)
{
    PmHeap heap(1 << 20);
    PmOffset a = heap.alloc(64);
    heap.free(a, 64);
    PmOffset b = heap.alloc(64);
    EXPECT_EQ(a, b);
}

TEST(PmHeap, CostAccrues)
{
    PmHeap heap(1 << 20);
    heap.drainCost();
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 1);
    heap.flush(off, 8);
    heap.fence();
    TickDelta cost = heap.drainCost();
    EXPECT_GT(cost, 0);
    EXPECT_EQ(heap.drainCost(), 0); // drained
}

TEST(PmHeap, ReadCostPerLine)
{
    CostModel model;
    PmHeap heap(1 << 20, model);
    PmOffset off = heap.alloc(256);
    heap.drainCost();
    std::uint8_t buf[256];
    heap.read(off, buf, 256);
    // 256 bytes = 4-5 cache lines depending on alignment.
    TickDelta cost = heap.drainCost();
    EXPECT_GE(cost, 4 * model.readPerLine);
    EXPECT_LE(cost, 5 * model.readPerLine);
}

TEST(PmHeap, CountsTrackOperations)
{
    PmHeap heap(1 << 20);
    auto before = heap.counts();
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 1);
    heap.flush(off, 8);
    heap.fence();
    auto after = heap.counts();
    EXPECT_GT(after.allocs, before.allocs);
    EXPECT_GT(after.writeLines, before.writeLines);
    EXPECT_GT(after.flushLines, before.flushLines);
    EXPECT_GT(after.fences, before.fences);
}

TEST(PmHeapDeath, OutOfBoundsPanics)
{
    PmHeap heap(1 << 20);
    std::uint8_t buf[16];
    EXPECT_DEATH(heap.read((1 << 20) - 4, buf, 16), "out of bounds");
}

/**
 * Dense reference model of the persist semantics, the oracle for
 * PmHeap's sparse bookkeeping: two full images, flush() captures the
 * rounded-out cache lines, fence() applies them in order, crash()
 * copies the whole durable image back.
 */
class DenseHeapModel
{
  public:
    explicit DenseHeapModel(const Bytes &image)
        : volatile_(image), durable_(image)
    {
    }

    void
    write(PmOffset offset, const Bytes &data)
    {
        std::copy(data.begin(), data.end(), volatile_.begin() + offset);
    }

    void
    flush(PmOffset offset, std::size_t len)
    {
        PmOffset first = offset / kCacheLine * kCacheLine;
        PmOffset last = std::min<PmOffset>(
            (offset + len + kCacheLine - 1) / kCacheLine * kCacheLine,
            volatile_.size());
        staged_.emplace_back(first, Bytes(volatile_.begin() + first,
                                          volatile_.begin() + last));
    }

    void
    fence()
    {
        for (const auto &[offset, bytes] : staged_)
            std::copy(bytes.begin(), bytes.end(),
                      durable_.begin() + offset);
        staged_.clear();
    }

    void
    crash()
    {
        staged_.clear();
        volatile_ = durable_;
    }

    const Bytes &image() const { return volatile_; }

  private:
    Bytes volatile_;
    Bytes durable_;
    std::vector<std::pair<PmOffset, Bytes>> staged_;
};

Bytes
readAll(const PmHeap &heap)
{
    Bytes image(heap.capacity());
    heap.read(0, image.data(), image.size());
    return image;
}

/**
 * A non-empty range past the pool header (overwriting the header would
 * trip crash()'s magic check), biased toward 4 KB page boundaries and
 * the pool's last byte, where a page-granular dirty set can go wrong.
 */
std::pair<PmOffset, std::size_t>
pickRange(std::uint64_t capacity, std::mt19937_64 &rng)
{
    constexpr std::uint64_t kPage = 4096;
    constexpr PmOffset kFirst = 64;
    std::uint64_t len =
        1 + (rng() % 4 == 0 ? rng() % (3 * kPage) : rng() % 200);
    len = std::min(len, capacity - kFirst);
    PmOffset offset = 0;
    switch (rng() % 3) {
      case 0:
        offset = kFirst + rng() % (capacity - len - kFirst + 1);
        break;
      case 1: {
        // Cover (or end exactly at) a page boundary.
        PmOffset boundary = kPage * (1 + rng() % (capacity / kPage));
        offset = boundary - std::min(boundary, rng() % (len + 1));
        break;
      }
      default:
        offset = capacity - len;
        break;
    }
    return {std::clamp(offset, kFirst, capacity - len),
            static_cast<std::size_t>(len)};
}

/** Apply @p steps random persist-path steps to both and compare. */
void
runRandomSteps(PmHeap &heap, DenseHeapModel &model, std::mt19937_64 &rng,
               int steps)
{
    for (int step = 0; step < steps; step++) {
        auto [offset, len] = pickRange(heap.capacity(), rng);
        std::uint64_t op = rng() % 20;
        if (op == 0) {
            heap.crash();
            model.crash();
            ASSERT_EQ(readAll(heap), model.image())
                << "image diverged after the crash at step " << step;
        } else if (op < 4) {
            heap.fence();
            model.fence();
        } else if (op < 8) {
            heap.flush(offset, len);
            model.flush(offset, len);
        } else if (op < 14) {
            Bytes data(len);
            for (std::uint8_t &byte : data)
                byte = static_cast<std::uint8_t>(rng());
            heap.write(offset, data.data(), len);
            model.write(offset, data);
        } else {
            Bytes got(len);
            heap.read(offset, got.data(), len);
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   model.image().begin() + offset))
                << "read [" << offset << ", +" << len
                << ") diverged at step " << step;
        }
    }
}

TEST(PmHeap, MatchesDenseReferenceAcrossCrashesAndReopen)
{
    // Not a multiple of 4 KB: the last dirty page is a partial one.
    constexpr std::uint64_t kCapacity = 64 * 4096 + 1000;
    char path[] = "/tmp/pmnet_pm_heap_XXXXXX";
    int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);

    std::mt19937_64 rng(15);
    auto heap = std::make_unique<PmHeap>(kCapacity);
    ASSERT_EQ(heap->attachBackingFile(path), PmHeap::BackingState::Fresh);
    DenseHeapModel model(readAll(*heap));
    ASSERT_NO_FATAL_FAILURE(runRandomSteps(*heap, model, rng, 6000));

    // Power cut, then a restarted process reopens the pool file.
    heap->crash();
    model.crash();
    heap = std::make_unique<PmHeap>(kCapacity);
    ASSERT_EQ(heap->attachBackingFile(path),
              PmHeap::BackingState::Reopened);
    ASSERT_EQ(readAll(*heap), model.image());
    ASSERT_NO_FATAL_FAILURE(runRandomSteps(*heap, model, rng, 6000));
    heap->crash();
    model.crash();
    EXPECT_EQ(readAll(*heap), model.image());
    ::unlink(path);
}

TEST(CostModel, LinesSpanned)
{
    EXPECT_EQ(CostModel::linesSpanned(0, 0), 0u);
    EXPECT_EQ(CostModel::linesSpanned(0, 1), 1u);
    EXPECT_EQ(CostModel::linesSpanned(0, 64), 1u);
    EXPECT_EQ(CostModel::linesSpanned(0, 65), 2u);
    EXPECT_EQ(CostModel::linesSpanned(63, 2), 2u);
    EXPECT_EQ(CostModel::linesSpanned(64, 64), 1u);
}

// ---------------------------------------------------------- log store

net::PacketPtr
updatePacket(std::uint32_t seq, std::size_t payload = 100)
{
    return net::makePmnetPacket(1, 2, net::PacketType::UpdateReq, 0, seq,
                                Bytes(payload));
}

TEST(PmLogStore, InsertLookupErase)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);

    auto pkt = updatePacket(1);
    std::uint32_t hash = pkt->pmnet->hashVal;
    EXPECT_EQ(store.insert(hash, pkt, 0), LogInsertResult::Ok);
    EXPECT_EQ(store.size(), 1u);

    const LogEntry *entry = store.lookup(hash);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->packet->pmnet->seqNum, 1u);

    EXPECT_TRUE(store.erase(hash));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.lookup(hash), nullptr);
    EXPECT_FALSE(store.erase(hash));
}

TEST(PmLogStore, DuplicateInsertDetected)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    auto pkt = updatePacket(1);
    std::uint32_t hash = pkt->pmnet->hashVal;
    store.insert(hash, pkt, 0);
    EXPECT_EQ(store.insert(hash, pkt, 1), LogInsertResult::Duplicate);
    EXPECT_EQ(store.insertDuplicate, 1u);
}

TEST(PmLogStore, CollisionDetected)
{
    DevicePmConfig config;
    config.capacityBytes = 4096; // exactly 2 slots of 2048
    PmLogStore store(config);
    ASSERT_EQ(store.capacity(), 2u);

    // Craft two hashes landing in the same slot.
    auto pkt_a = updatePacket(1);
    std::uint32_t hash_a = pkt_a->pmnet->hashVal;
    std::uint32_t hash_b = hash_a + 2; // same parity -> same slot of 2
    EXPECT_EQ(store.insert(hash_a, pkt_a, 0), LogInsertResult::Ok);
    EXPECT_EQ(store.insert(hash_b, updatePacket(2), 0),
              LogInsertResult::Collision);
    EXPECT_FALSE(store.slotFree(hash_a));
    EXPECT_TRUE(store.slotFree(hash_a + 1));
}

TEST(PmLogStore, OversizedPacketRejected)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    config.slotBytes = 256;
    PmLogStore store(config);
    auto big = updatePacket(1, 1000);
    EXPECT_EQ(store.insert(big->pmnet->hashVal, big, 0),
              LogInsertResult::TooLarge);
}

TEST(PmLogStore, ForEachVisitsLiveEntries)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    for (std::uint32_t seq = 1; seq <= 10; seq++) {
        auto pkt = updatePacket(seq);
        ASSERT_EQ(store.insert(pkt->pmnet->hashVal, pkt, 0),
                  LogInsertResult::Ok);
    }
    int visited = 0;
    store.forEach([&](const LogEntry &) { visited++; });
    EXPECT_EQ(visited, 10);
}

TEST(PmLogStore, BitmapScanTracksInsertEraseChurn)
{
    // The occupancy-bitmap walk must stay exact through arbitrary
    // insert/erase interleavings: visit exactly the live hash set.
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);

    std::set<std::uint32_t> live;
    for (std::uint32_t seq = 1; seq <= 200; seq++) {
        auto pkt = updatePacket(seq);
        if (store.insert(pkt->pmnet->hashVal, pkt, 0) ==
            LogInsertResult::Ok) {
            live.insert(pkt->pmnet->hashVal);
        }
        if (seq % 3 == 0 && !live.empty()) {
            std::uint32_t victim = *live.begin();
            EXPECT_TRUE(store.erase(victim));
            live.erase(victim);
        }
    }

    std::set<std::uint32_t> visited;
    store.forEach([&](const LogEntry &entry) {
        visited.insert(entry.hashVal);
    });
    EXPECT_EQ(visited, live);
    EXPECT_EQ(store.size(), live.size());
    EXPECT_DOUBLE_EQ(store.occupancy(),
                     static_cast<double>(live.size()) /
                         static_cast<double>(store.capacity()));

    store.clear();
    int after_clear = 0;
    store.forEach([&](const LogEntry &) { after_clear++; });
    EXPECT_EQ(after_clear, 0);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_DOUBLE_EQ(store.occupancy(), 0.0);
}

TEST(PmLogStore, ForEachVisitsSlotsInAscendingIndex)
{
    // forEach visits ascending slot index, whatever order the entries
    // arrived and left in: the order re-forward scans, resilver
    // streams and journal compaction walk. (Recovery replays in
    // (session, seq) order; see PmnetDevice::replayOrder.)
    DevicePmConfig config;
    config.capacityBytes = 100000 * 2048; // not a power of two
    PmLogStore store(config);
    ASSERT_EQ(store.capacity(), 100000u);

    // The walk stops after the last live entry: an empty store visits
    // nothing, and a lone entry in the very last slot is still found.
    int visited_empty = 0;
    store.forEach([&](const LogEntry &) { visited_empty++; });
    EXPECT_EQ(visited_empty, 0);
    auto last = updatePacket(1);
    std::uint32_t last_slot_hash =
        static_cast<std::uint32_t>(store.capacity() - 1);
    ASSERT_EQ(store.insert(last_slot_hash, last, 0), LogInsertResult::Ok);
    std::vector<std::uint32_t> lone;
    store.forEach([&](const LogEntry &entry) {
        lone.push_back(entry.hashVal);
    });
    EXPECT_EQ(lone, std::vector<std::uint32_t>{last_slot_hash});
    ASSERT_TRUE(store.erase(last_slot_hash));

    std::mt19937 rng(7);
    auto pkt = updatePacket(1);
    std::vector<std::uint32_t> inserted;
    for (int i = 0; i < 600; i++) {
        std::uint32_t hash = static_cast<std::uint32_t>(rng());
        if (store.insert(hash, pkt, 0) == LogInsertResult::Ok)
            inserted.push_back(hash);
        if (i % 4 == 3 && !inserted.empty())
            store.erase(inserted[rng() % inserted.size()]);
    }
    std::set<std::uint64_t> live_slots;
    for (std::uint32_t hash : inserted) {
        if (store.lookup(hash) != nullptr)
            live_slots.insert(hash % store.capacity());
    }
    ASSERT_EQ(live_slots.size(), store.size());

    std::vector<std::uint64_t> visited;
    store.forEach([&](const LogEntry &entry) {
        visited.push_back(entry.hashVal % store.capacity());
    });
    EXPECT_EQ(visited, std::vector<std::uint64_t>(live_slots.begin(),
                                                  live_slots.end()));
}

TEST(PmLogStore, HighWaterTracksPeak)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    auto pkt1 = updatePacket(1);
    auto pkt2 = updatePacket(2);
    store.insert(pkt1->pmnet->hashVal, pkt1, 0);
    store.insert(pkt2->pmnet->hashVal, pkt2, 0);
    store.erase(pkt1->pmnet->hashVal);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.highWater, 2u);
}

TEST(PmLogStore, ClearEmpties)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    auto pkt = updatePacket(1);
    store.insert(pkt->pmnet->hashVal, pkt, 0);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------- log queue

TEST(LogQueue, WriteTimeIncludesLatencyAndTransfer)
{
    DevicePmConfig config; // 273ns + bytes/2.5GBps
    LogQueue queue(4096, config);
    auto done = queue.admitWrite(1000, 0);
    ASSERT_TRUE(done.has_value());
    // 1000B at 2.5 GB/s = 400ns transfer.
    EXPECT_EQ(*done, 273 + 400);
}

TEST(LogQueue, AccessesSerialize)
{
    DevicePmConfig config;
    LogQueue queue(65536, config);
    auto first = queue.admitWrite(1000, 0);
    auto second = queue.admitWrite(1000, 0);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(*second, *first + 673);
}

TEST(LogQueue, RejectsWhenBufferFull)
{
    DevicePmConfig config;
    LogQueue queue(2048, config);
    EXPECT_TRUE(queue.admitWrite(1500, 0).has_value());
    EXPECT_FALSE(queue.admitWrite(1500, 0).has_value());
    EXPECT_EQ(queue.rejected(), 1u);
    // After the first access completes the space frees up.
    EXPECT_TRUE(queue.admitWrite(1500, microseconds(10)).has_value());
}

TEST(LogQueue, BacklogDrains)
{
    DevicePmConfig config;
    LogQueue queue(8192, config);
    queue.admitWrite(1000, 0);
    EXPECT_EQ(queue.backlogBytes(0), 1000u);
    EXPECT_EQ(queue.backlogBytes(microseconds(10)), 0u);
}

TEST(LogQueue, ClearDropsInFlight)
{
    DevicePmConfig config;
    LogQueue queue(8192, config);
    queue.admitWrite(1000, 0);
    queue.clear();
    EXPECT_EQ(queue.backlogBytes(0), 0u);
}

TEST(LogQueue, ReadUsesReadLatency)
{
    DevicePmConfig config;
    config.readLatency = 200;
    LogQueue queue(8192, config);
    auto done = queue.admitRead(1000, 0);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, 200 + 400);
}

TEST(LogQueue, RingWrapsUnderSustainedTraffic)
{
    // The fixed ring must keep admitting and expiring across many
    // wrap-arounds of the head index without losing byte accounting.
    DevicePmConfig config;
    LogQueue queue(4096, config);
    Tick now = 0;
    for (int i = 0; i < 20000; i++) {
        auto done = queue.admitWrite(1024, now);
        ASSERT_TRUE(done.has_value()) << "iteration " << i;
        now = *done; // wait out each access: backlog fully drains
    }
    EXPECT_EQ(queue.backlogBytes(now), 0u);
    EXPECT_EQ(queue.rejected(), 0u);
}

TEST(LogQueue, RingRejectsWhenAllSlotsPending)
{
    // Tiny accesses can fill the slot ring before the byte budget; a
    // full ring must reject, not overwrite.
    DevicePmConfig config;
    LogQueue queue(1024, config, /*max_pending=*/4);
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_FALSE(queue.admitWrite(1, 0).has_value());
    EXPECT_EQ(queue.rejected(), 1u);
    // Completed accesses free their slots.
    EXPECT_TRUE(queue.admitWrite(1, microseconds(100)).has_value());
}

TEST(LogQueue, RingSizedByMinAccessNotByBytes)
{
    // The ring holds capacity/kMinAccessBytes slots, not one per
    // byte: a 1 MB SRAM budget must not allocate a 1M-entry ring.
    DevicePmConfig config;
    LogQueue queue(1 << 20, config);
    EXPECT_EQ(queue.pendingCapacity(), (1u << 20) / kMinAccessBytes);
    // Tiny capacities still get at least one slot.
    LogQueue small(4, config);
    EXPECT_EQ(small.pendingCapacity(), 1u);
    EXPECT_TRUE(small.admitWrite(1, 0).has_value());
    // An explicit override wins.
    LogQueue overridden(4096, config, 7);
    EXPECT_EQ(overridden.pendingCapacity(), 7u);
}

TEST(LogQueue, ZeroByteAccessRejected)
{
    // A 0-byte access would consume a slot without consuming budget,
    // breaking the >=1-byte-per-slot sizing invariant.
    DevicePmConfig config;
    LogQueue queue(4096, config);
    EXPECT_FALSE(queue.admitWrite(0, 0).has_value());
    EXPECT_FALSE(queue.admitRead(0, 0).has_value());
    EXPECT_EQ(queue.rejected(), 2u);
    EXPECT_EQ(queue.admitted(), 0u);
}

// -------------------------------------------------------- commit epoch

TEST(CommitEpoch, OpensOnFirstStageAndClosesByOps)
{
    CommitEpochConfig config;
    config.maxOps = 3;
    config.maxBytes = 1 << 20;
    CommitEpoch epoch(config);

    auto first = epoch.stage(100, 10);
    EXPECT_TRUE(first.opened);
    EXPECT_FALSE(first.shouldClose);
    EXPECT_TRUE(epoch.open());
    auto second = epoch.stage(100, 11);
    EXPECT_FALSE(second.opened);
    EXPECT_FALSE(second.shouldClose);
    auto third = epoch.stage(100, 12);
    EXPECT_TRUE(third.shouldClose);
    EXPECT_TRUE(epoch.open()) << "stage never closes the epoch itself";

    EXPECT_EQ(epoch.close(EpochCloseReason::Ops, 15, 15), 3u);
    EXPECT_FALSE(epoch.open());
    EXPECT_EQ(epoch.close(EpochCloseReason::Drain, 16, 16), 0u)
        << "nothing left to close";

    const CommitEpochStats &stats = epoch.stats();
    EXPECT_EQ(stats.epochsClosed, 1u);
    EXPECT_EQ(stats.closedByOps, 1u);
    EXPECT_EQ(stats.closedByDrain, 0u);
    EXPECT_EQ(stats.opsCommitted, 3u);
    EXPECT_EQ(stats.bytesCommitted, 300u);
    EXPECT_EQ(stats.acksDeferred, 3u) << "all staged before the close";
    EXPECT_EQ(stats.maxBatchOps, 3u);
    EXPECT_EQ(stats.maxHoldTicks, 5u);
}

TEST(CommitEpoch, ClosesByBytes)
{
    CommitEpochConfig config;
    config.maxBytes = 250;
    config.maxOps = 100;
    CommitEpoch epoch(config);
    EXPECT_FALSE(epoch.stage(200, 0).shouldClose);
    EXPECT_TRUE(epoch.stage(200, 0).shouldClose);
    epoch.close(EpochCloseReason::Bytes, 0, 0);
    EXPECT_EQ(epoch.stats().closedByBytes, 1u);
    EXPECT_EQ(epoch.stats().maxBatchBytes, 400u);
}

TEST(CommitEpoch, SameTickCloseDefersOnlyEarlierStages)
{
    // Acks released at the close tick leave in the same tick as the
    // ops staged then: only the earlier stages waited.
    CommitEpoch epoch;
    epoch.stage(10, 1);
    epoch.stage(10, 5);
    epoch.stage(10, 5);
    EXPECT_EQ(epoch.close(EpochCloseReason::Ops, 5, 5), 3u);
    EXPECT_EQ(epoch.stats().acksDeferred, 1u);

    // Per-op fencing with a zero-cost fence defers nothing.
    epoch.stage(10, 7);
    epoch.close(EpochCloseReason::Ops, 7, 7);
    EXPECT_EQ(epoch.stats().acksDeferred, 1u);
    EXPECT_EQ(epoch.stats().opsCommitted, 4u);
}

TEST(CommitEpoch, LaterReleaseDefersEveryOp)
{
    // The fence retires after the close: every ack waits for it, the
    // op staged in the closing tick too.
    CommitEpoch epoch;
    epoch.stage(10, 1);
    epoch.stage(10, 5);
    EXPECT_EQ(epoch.close(EpochCloseReason::Doorbell, 5, 9), 2u);
    EXPECT_EQ(epoch.stats().acksDeferred, 2u);
    EXPECT_EQ(epoch.stats().closedByDoorbell, 1u);
}

TEST(CommitEpoch, DoorbellSeqGoesStaleAtClose)
{
    CommitEpoch epoch;
    auto first = epoch.stage(10, 0);
    EXPECT_TRUE(epoch.stillOpen(first.epochSeq));
    epoch.close(EpochCloseReason::Ops, 1, 1);
    EXPECT_FALSE(epoch.stillOpen(first.epochSeq));
    auto second = epoch.stage(10, 2);
    EXPECT_NE(first.epochSeq, second.epochSeq);

    // A doorbell armed for the first epoch must not close the second.
    EXPECT_FALSE(epoch.stillOpen(first.epochSeq));
    EXPECT_TRUE(epoch.stillOpen(second.epochSeq));
}

TEST(CommitEpoch, AbandonDropsWithoutCompleting)
{
    CommitEpoch epoch;
    epoch.stage(10, 0);
    epoch.stage(10, 0);
    EXPECT_EQ(epoch.abandon(), 2u);
    EXPECT_FALSE(epoch.open());
    EXPECT_EQ(epoch.openBytes(), 0u);
    EXPECT_EQ(epoch.stats().opsAbandoned, 2u);
    EXPECT_EQ(epoch.stats().epochsClosed, 0u);
    EXPECT_EQ(epoch.stats().opsCommitted, 0u);
}

TEST(CommitEpoch, StageAfterCloseOpensFreshEpoch)
{
    // The owner releases acks after close() returns, and the next
    // request may stage in that same tick: it opens a fresh epoch.
    CommitEpoch epoch;
    epoch.stage(10, 0);
    epoch.close(EpochCloseReason::Doorbell, 5, 5);
    auto next = epoch.stage(10, 5);
    EXPECT_TRUE(next.opened);
    EXPECT_TRUE(epoch.open());
    EXPECT_EQ(epoch.openOps(), 1u);
    EXPECT_EQ(epoch.openBytes(), 10u);
}

// --------------------------------------------------------- BDP sizing

TEST(Bdp, PaperEquationOne)
{
    // 500us RTT at 10 Gbps ~ 5 Mbit (Equation 1).
    EXPECT_NEAR(bdpBits(500e-6, 10.0), 5e6, 1);
}

TEST(Bdp, PaperEquationTwo)
{
    // 100ns PM latency at 10 Gbps ~ 1 kbit (Equation 2).
    EXPECT_NEAR(bdpBits(100e-9, 10.0), 1000, 1);
}

TEST(DevicePmConfig, SlotCount)
{
    DevicePmConfig config;
    EXPECT_EQ(config.slotCount(), (2ull << 30) / 2048);
}

// ---------------------------------------------------------- footprint

std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(PmFootprint, FullSizeLogAndGigabyteHeapCostOnlyTouchedPages)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
#endif
    std::uint64_t before = residentBytes();
    PmLogStore store{DevicePmConfig{}}; // 2 GB: 1M slots
    PmHeap heap(1ull << 30);
    auto pkt = updatePacket(1);
    ASSERT_EQ(store.insert(pkt->pmnet->hashVal, pkt, 0),
              LogInsertResult::Ok);
    PmOffset off = heap.alloc(64);
    heap.persistObj<std::uint64_t>(off, 7);
    heap.crash();
    ASSERT_EQ(heap.readObj<std::uint64_t>(off), 7u);
    std::uint64_t growth = residentBytes() - before;
    EXPECT_LT(growth, 16ull << 20)
        << "RSS grew by " << (growth >> 20) << " MB";
}

} // namespace
} // namespace pmnet::pm
