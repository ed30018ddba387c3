/**
 * @file
 * Emulated server-side persistent memory heap.
 *
 * The KV data structures in src/kv run *for real* on this heap: they
 * store bytes at offsets, follow the PMDK discipline (store, flush,
 * fence) and can be recovered after a simulated crash. Two images are
 * kept:
 *
 *  - the volatile image — what loads observe (caches + PM);
 *  - the durable image — what survives a power failure.
 *
 * write() updates only the volatile image. flush() stages the current
 * volatile content of a range (clwb semantics: the line's value at
 * flush time); fence() applies staged ranges to the durable image.
 * crash() discards the volatile image in favour of the durable one, so
 * any structure that skipped a flush or fence will visibly lose data —
 * this is what the crash-recovery property tests exercise.
 *
 * A run pays only for the PM it touches. Both images are private
 * anonymous mappings, so the kernel maps a zero page on first touch
 * whatever the size of the pool, and write() marks its 4 KB pages in
 * a dirty set. A page outside that set holds the same bytes in both
 * images, so crash() copies back only the marked pages instead of the
 * whole pool. A file-backed heap (gateway mode) swaps its durable
 * image for a shared mapping of the pool file.
 *
 * Every operation also accrues simulated time per the CostModel; the
 * server host drains this accrual to charge request-processing time.
 *
 * A 64-byte persistent header holds the allocator bump pointer and the
 * root object offset (like a PMDK pool root), so recovery can re-find
 * the data structures.
 */

#ifndef PMNET_PM_PM_HEAP_H
#define PMNET_PM_PM_HEAP_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "pm/cost_model.h"

namespace pmnet::pm {

/** Offset into the heap; 0 is never a valid object address. */
using PmOffset = std::uint64_t;

/** Null object offset. */
inline constexpr PmOffset kNullOffset = 0;

/**
 * A point on the flush/fence path where a power failure would leave a
 * distinct durable/volatile split (the crash matrix in src/fault
 * enumerates these):
 *
 *  - Flush:       a clwb is about to stage a range. Nothing staged by
 *                 this call survives a crash here.
 *  - Fence:       an sfence is about to retire. Everything staged
 *                 since the previous fence is still lost here.
 *  - FenceRetire: the sfence just retired. The staged ranges are
 *                 durable, but the *host* has not executed a single
 *                 instruction past the fence yet. No KV backend keeps
 *                 volatile state that could lag here; the crash
 *                 matrix counts these to check that a group-commit
 *                 ack never leaves before its batch fence retires.
 */
enum class PersistBoundary : std::uint8_t { Flush, Fence, FenceRetire };

const char *persistBoundaryName(PersistBoundary boundary);

/**
 * Observer invoked at every persist boundary. Installed by the fault
 * harness to count boundaries and to inject crashes (by throwing out
 * of the hook; the heap keeps no state that unwinding would corrupt —
 * the harness calls crash() right after catching). Never installed on
 * measured paths: an unset hook costs one predictable branch.
 */
using PersistBoundaryHook = std::function<void(PersistBoundary)>;

/** Counters describing the PM work a code region performed. */
struct PmOpCounts
{
    std::uint64_t readLines = 0;
    std::uint64_t writeLines = 0;
    std::uint64_t flushLines = 0;
    std::uint64_t fences = 0;
    std::uint64_t allocs = 0;
};

/** Byte-addressable persistent heap with crash emulation. */
class PmHeap
{
  public:
    /**
     * @param capacity_bytes total pool size.
     * @param model per-operation timing.
     */
    explicit PmHeap(std::uint64_t capacity_bytes = 64ull << 20,
                    CostModel model = {});

    ~PmHeap();

    PmHeap(const PmHeap &) = delete;
    PmHeap &operator=(const PmHeap &) = delete;

    /** @name File-backed durability (gateway mode)
     *
     * In sim mode both images are DRAM and "durability" means
     * surviving crash(). A gateway process needs the durable image to
     * survive the *process*: attachBackingFile() maps a file
     * MAP_SHARED as the durable image, so the copy fence() makes of
     * the just-retired staged ranges is a store into the file's page
     * cache, with no syscall. A SIGKILLed daemon restarted on the same
     * file recovers exactly what it had fenced — the same contract
     * crash() models in-process. The kernel writes those pages to disk
     * in its own time; surviving kernel/power loss needs
     * syncBackingFile(), or @p sync_every_fence at a large per-fence
     * cost.
     *  @{
     */

    /** Outcome of attachBackingFile(). */
    enum class BackingState {
        Fresh,    ///< new or incompatible file — initialized from this heap
        Reopened, ///< existing pool image loaded (recovery path)
    };

    /**
     * Map @p path as the durable image, with every block of it
     * reserved first: a store into a mapped page the filesystem cannot
     * back raises SIGBUS, so a file that cannot be sized is fatal here
     * instead. If the file holds a pool of this capacity with a valid
     * header, the volatile image is loaded from it (volatile :=
     * durable, as after crash()) and Reopened is returned; otherwise
     * the file is (re)initialized from the current durable image.
     * Call at most once, before serving.
     */
    BackingState attachBackingFile(const std::string &path,
                                   bool sync_every_fence = false);

    /** True when the durable image is a mapped backing file. */
    bool fileBacked() const { return backingFd_ >= 0; }

    /**
     * Write the mapped durable image to stable storage (no-op without
     * a backing file): fdatasync of the mapped file, which on Linux
     * also writes back pages dirtied through the mapping. A failed
     * flush is fatal, as in LogJournal::sync().
     */
    void syncBackingFile();
    /** @} */

    /** @name Allocation
     *  @{
     */

    /**
     * Allocate @p size bytes (16-byte aligned). The bump pointer is
     * persisted before the call returns, so post-crash allocations
     * never overwrite pre-crash reachable data.
     * Calls fatal() when the pool is exhausted.
     */
    PmOffset alloc(std::uint64_t size);

    /**
     * Return a block to the (volatile) free list. Freed blocks may
     * leak across a crash — matching a non-transactional PMDK
     * allocator — but are reused within a run.
     */
    void free(PmOffset offset, std::uint64_t size);
    /** @} */

    /** @name Data access
     *  @{
     */

    /** Store bytes (volatile until flushed + fenced). */
    void write(PmOffset offset, const void *data, std::size_t len);

    /** Load bytes from the volatile image. */
    void read(PmOffset offset, void *out, std::size_t len) const;

    /** clwb: stage the current content of the range for persistence. */
    void flush(PmOffset offset, std::size_t len);

    /** sfence: make all staged ranges durable. */
    void fence();

    /** write + flush in one call (clwb-sized helper). */
    void
    writeFlush(PmOffset offset, const void *data, std::size_t len)
    {
        write(offset, data, len);
        flush(offset, len);
    }

    /** Typed helpers for trivially copyable records. */
    template <typename T>
    void
    writeObj(PmOffset offset, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(offset, &value, sizeof(T));
    }

    template <typename T>
    T
    readObj(PmOffset offset) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(offset, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    persistObj(PmOffset offset, const T &value)
    {
        writeObj(offset, value);
        flush(offset, sizeof(T));
        fence();
    }
    /** @} */

    /** @name Pool root (survives crashes)
     *  @{
     */
    void setRoot(PmOffset root);
    PmOffset root() const;
    /** @} */

    /** @name Crash emulation
     *  @{
     */

    /**
     * Simulate a power failure: the volatile image reverts to the
     * durable one and staged-but-unfenced ranges are lost.
     */
    void crash();

    /**
     * Install @p hook (empty to remove) on the flush/fence path; see
     * PersistBoundaryHook. Cleared automatically by crash().
     */
    void setPersistBoundaryHook(PersistBoundaryHook hook);
    /** @} */

    /** @name Cost accounting
     *  @{
     */

    /** Accrued simulated time since the last drain. */
    TickDelta accruedCost() const { return accrued_; }

    /** Return accrued time and reset the accumulator. */
    TickDelta drainCost();

    /** Op counters since construction. */
    const PmOpCounts &counts() const { return counts_; }

    const CostModel &model() const { return model_; }
    /** @} */

    std::uint64_t capacity() const { return capacity_; }

    /** Bytes currently allocated (bump minus freelist). */
    std::uint64_t bytesInUse() const;

  private:
    struct Header
    {
        std::uint64_t magic;
        std::uint64_t bump;
        std::uint64_t root;
    };

    static constexpr std::uint64_t kMagic = 0x504D4E4554504Dull;
    static constexpr std::uint64_t kHeaderSize = 64;
    /** Granule of the dirty set: one bit per 4 KB page. */
    static constexpr std::uint64_t kPageBytes = 4096;

    /**
     * A pool image: a mapping of mappedBytes, anonymous (lazily
     * zeroed) or of the backing file, released with munmap.
     */
    struct ImageDeleter
    {
        std::size_t mappedBytes;
        void operator()(std::uint8_t *image) const;
    };
    using Image = std::unique_ptr<std::uint8_t[], ImageDeleter>;
    static Image allocateImage(std::uint64_t capacity);

    void checkRange(PmOffset offset, std::size_t len) const;
    Header loadHeader() const;
    void storeHeader(const Header &header);
    void markDirty(PmOffset offset, std::size_t len);

    std::uint64_t capacity_;
    CostModel model_;
    Image volatileImage_;
    Image durableImage_;
    /**
     * Pages write() touched since the last crash(); every other page
     * is identical in both images (fence() only ever copies volatile
     * bytes captured by flush()).
     */
    std::vector<std::uint64_t> dirtyPages_;
    /**
     * Ranges staged by flush(), applied to durable at fence(). The
     * byte content lives in a flat arena reused across fences (clear
     * keeps capacity), so steady-state flush/fence never allocates.
     */
    struct StagedRange
    {
        PmOffset off;
        std::size_t pos;
        std::size_t len;
    };
    std::vector<StagedRange> staged_;
    Bytes stageArena_;
    /**
     * Volatile free lists keyed by (16-byte rounded) block size.
     * Small classes are direct-indexed by size/16 — the hot path for
     * the node/blob-sized blocks every keyed op recycles — with the
     * ordered map as the fallback for large blocks.
     */
    static constexpr std::uint64_t kSmallClassMax = 512;
    std::vector<std::vector<PmOffset>> smallFree_ =
        std::vector<std::vector<PmOffset>>(kSmallClassMax / 16 + 1);
    std::map<std::uint64_t, std::vector<PmOffset>> freeLists_;
    std::uint64_t freeBytes_ = 0;

    mutable TickDelta accrued_ = 0;
    mutable PmOpCounts counts_;

    PersistBoundaryHook boundaryHook_;

    /** Descriptor of the mapped backing file; -1 in sim (DRAM-only)
     *  mode. */
    int backingFd_ = -1;
    bool syncEveryFence_ = false;
};

} // namespace pmnet::pm

#endif // PMNET_PM_PM_HEAP_H
