#include "pm/pm_heap.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.h"

namespace pmnet::pm {

namespace {

/** True when all @p len (> 0) bytes at @p p are zero. */
bool
allZero(const std::uint8_t *p, std::size_t len)
{
    return p[0] == 0 && std::memcmp(p, p + 1, len - 1) == 0;
}

} // namespace

const char *
persistBoundaryName(PersistBoundary boundary)
{
    switch (boundary) {
      case PersistBoundary::Flush: return "flush";
      case PersistBoundary::Fence: return "fence";
      case PersistBoundary::FenceRetire: return "fence-retire";
    }
    return "unknown";
}

void
PmHeap::ImageDeleter::operator()(std::uint8_t *image) const
{
    ::munmap(image, mappedBytes);
}

PmHeap::Image
PmHeap::allocateImage(std::uint64_t capacity)
{
    // Mapped directly, not malloc'ed: an image recycled from the
    // allocator's arena would be zeroed again, page by page.
    auto bytes = static_cast<std::size_t>(capacity);
    void *image = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (image == MAP_FAILED)
        fatal("PmHeap: cannot map a %llu-byte image: %s",
              static_cast<unsigned long long>(capacity),
              std::strerror(errno));
    return Image(static_cast<std::uint8_t *>(image), ImageDeleter{bytes});
}

PmHeap::PmHeap(std::uint64_t capacity_bytes, CostModel model)
    : capacity_(capacity_bytes), model_(model)
{
    if (capacity_bytes < kHeaderSize + 1024)
        fatal("PmHeap: capacity %llu too small",
              static_cast<unsigned long long>(capacity_bytes));
    volatileImage_ = allocateImage(capacity_);
    durableImage_ = allocateImage(capacity_);
    std::uint64_t pages = (capacity_ + kPageBytes - 1) / kPageBytes;
    dirtyPages_.assign(static_cast<std::size_t>((pages + 63) / 64), 0);
    Header header{kMagic, kHeaderSize, kNullOffset};
    storeHeader(header);
    fence();
    // Construction cost is not part of any request.
    accrued_ = 0;
    counts_ = {};
}

PmHeap::~PmHeap()
{
    if (backingFd_ >= 0)
        ::close(backingFd_);
}

PmHeap::BackingState
PmHeap::attachBackingFile(const std::string &path, bool sync_every_fence)
{
    if (backingFd_ >= 0)
        panic("PmHeap: backing file already attached");
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        fatal("PmHeap: cannot open backing file %s", path.c_str());
    backingFd_ = fd;
    syncEveryFence_ = sync_every_fence;

    struct stat st = {};
    if (::fstat(fd, &st) != 0)
        fatal("PmHeap: cannot stat backing file %s", path.c_str());
    // A file of another size holds no pool of this heap: restart it
    // from zeros. Then reserve every block, since a store into a mapped
    // page the filesystem cannot back raises SIGBUS, not an error.
    bool zeroed = static_cast<std::uint64_t>(st.st_size) != capacity_;
    if ((zeroed && ::ftruncate(fd, 0) != 0) ||
        ::posix_fallocate(fd, 0, static_cast<off_t>(capacity_)) != 0)
        fatal("PmHeap: cannot size backing file %s", path.c_str());
    void *map = ::mmap(nullptr, static_cast<std::size_t>(capacity_),
                       PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED)
        fatal("PmHeap: cannot map backing file %s: %s", path.c_str(),
              std::strerror(errno));
    Image file(static_cast<std::uint8_t *>(map),
               ImageDeleter{static_cast<std::size_t>(capacity_)});

    Header header;
    std::memcpy(&header, file.get(), sizeof(header));
    if (!zeroed && header.magic == kMagic) {
        durableImage_ = std::move(file);
        // Same state as right after a power failure: volatile
        // reverts to durable, staged/free-list state is gone.
        std::memcpy(volatileImage_.get(), durableImage_.get(), capacity_);
        std::fill(dirtyPages_.begin(), dirtyPages_.end(), 0);
        staged_.clear();
        stageArena_.clear();
        for (std::vector<PmOffset> &list : smallFree_)
            list.clear();
        freeLists_.clear();
        freeBytes_ = 0;
        accrued_ = 0;
        counts_ = {};
        return BackingState::Reopened;
    }

    // Fresh: the file takes the durable image, page by page, skipping
    // the pages that are zero in both.
    for (std::uint64_t begin = 0; begin < capacity_; begin += kPageBytes) {
        std::size_t len =
            static_cast<std::size_t>(std::min(kPageBytes, capacity_ - begin));
        const std::uint8_t *from = durableImage_.get() + begin;
        std::uint8_t *to = file.get() + begin;
        if (!allZero(from, len) || (!zeroed && !allZero(to, len)))
            std::memcpy(to, from, len);
    }
    durableImage_ = std::move(file);
    return BackingState::Fresh;
}

void
PmHeap::syncBackingFile()
{
    if (backingFd_ >= 0 && ::fdatasync(backingFd_) != 0)
        fatal("PmHeap: backing-file fdatasync failed: %s",
              std::strerror(errno));
}

void
PmHeap::checkRange(PmOffset offset, std::size_t len) const
{
    if (offset > capacity_ || len > capacity_ - offset)
        panic("PmHeap: access [%llu, +%zu) out of bounds (capacity %llu)",
              static_cast<unsigned long long>(offset), len,
              static_cast<unsigned long long>(capacity_));
}

PmHeap::Header
PmHeap::loadHeader() const
{
    Header header;
    std::memcpy(&header, volatileImage_.get(), sizeof(header));
    return header;
}

void
PmHeap::storeHeader(const Header &header)
{
    write(0, &header, sizeof(header));
    flush(0, sizeof(header));
}

PmOffset
PmHeap::alloc(std::uint64_t size)
{
    if (size == 0)
        panic("PmHeap::alloc: zero-sized allocation");
    std::uint64_t rounded = (size + 15) & ~15ull;

    counts_.allocs++;

    // Exact-size free-list reuse first.
    if (rounded <= kSmallClassMax) {
        std::vector<PmOffset> &list = smallFree_[rounded >> 4];
        if (!list.empty()) {
            PmOffset off = list.back();
            list.pop_back();
            freeBytes_ -= rounded;
            return off;
        }
    } else {
        auto it = freeLists_.find(rounded);
        if (it != freeLists_.end() && !it->second.empty()) {
            PmOffset off = it->second.back();
            it->second.pop_back();
            freeBytes_ -= rounded;
            return off;
        }
    }

    Header header = loadHeader();
    if (header.bump + rounded > capacity_)
        fatal("PmHeap: out of memory (capacity %llu, requested %llu)",
              static_cast<unsigned long long>(capacity_),
              static_cast<unsigned long long>(rounded));
    PmOffset off = header.bump;
    header.bump += rounded;
    // Persist the bump pointer before handing out the block so the
    // block cannot be re-allocated over after a crash.
    storeHeader(header);
    fence();
    return off;
}

void
PmHeap::free(PmOffset offset, std::uint64_t size)
{
    if (offset == kNullOffset)
        return;
    std::uint64_t rounded = (size + 15) & ~15ull;
    checkRange(offset, rounded);
    if (rounded <= kSmallClassMax)
        smallFree_[rounded >> 4].push_back(offset);
    else
        freeLists_[rounded].push_back(offset);
    freeBytes_ += rounded;
}

void
PmHeap::write(PmOffset offset, const void *data, std::size_t len)
{
    checkRange(offset, len);
    if (len == 0)
        return;
    std::memcpy(volatileImage_.get() + offset, data, len);
    markDirty(offset, len);
    std::size_t lines = CostModel::linesSpanned(offset, len);
    counts_.writeLines += lines;
    accrued_ += model_.writePerLine * static_cast<TickDelta>(lines);
}

void
PmHeap::markDirty(PmOffset offset, std::size_t len)
{
    std::uint64_t last = (offset + len - 1) / kPageBytes;
    for (std::uint64_t page = offset / kPageBytes; page <= last; page++)
        dirtyPages_[page / 64] |= std::uint64_t{1} << (page % 64);
}

void
PmHeap::read(PmOffset offset, void *out, std::size_t len) const
{
    checkRange(offset, len);
    std::memcpy(out, volatileImage_.get() + offset, len);
    std::size_t lines = CostModel::linesSpanned(offset, len);
    counts_.readLines += lines;
    accrued_ += model_.readPerLine * static_cast<TickDelta>(lines);
}

void
PmHeap::flush(PmOffset offset, std::size_t len)
{
    checkRange(offset, len);
    if (len == 0)
        return;
    if (boundaryHook_)
        boundaryHook_(PersistBoundary::Flush);
    // clwb semantics: capture the line content as of flush time,
    // rounded out to cache-line boundaries.
    PmOffset first = offset / kCacheLine * kCacheLine;
    PmOffset end = offset + len;
    PmOffset last = (end + kCacheLine - 1) / kCacheLine * kCacheLine;
    if (last > capacity_)
        last = capacity_;
    std::size_t pos = stageArena_.size();
    stageArena_.insert(stageArena_.end(), volatileImage_.get() + first,
                       volatileImage_.get() + last);
    staged_.push_back(StagedRange{first, pos, last - first});

    std::size_t lines = CostModel::linesSpanned(offset, len);
    counts_.flushLines += lines;
    accrued_ += model_.flushPerLine * static_cast<TickDelta>(lines);
}

void
PmHeap::fence()
{
    if (boundaryHook_)
        boundaryHook_(PersistBoundary::Fence);
    counts_.fences++;
    if (staged_.empty()) {
        accrued_ += model_.fenceEmpty;
    } else {
        // With a backing file this copy is the write-through: the
        // durable image is the file's mapping.
        for (const StagedRange &r : staged_)
            std::memcpy(durableImage_.get() + r.off,
                        stageArena_.data() + r.pos, r.len);
        if (syncEveryFence_)
            syncBackingFile();
        staged_.clear();
        stageArena_.clear();
        accrued_ += model_.fenceDrain;
    }
    if (boundaryHook_)
        boundaryHook_(PersistBoundary::FenceRetire);
}

void
PmHeap::setRoot(PmOffset new_root)
{
    Header header = loadHeader();
    header.root = new_root;
    storeHeader(header);
    fence();
}

PmOffset
PmHeap::root() const
{
    return loadHeader().root;
}

void
PmHeap::setPersistBoundaryHook(PersistBoundaryHook hook)
{
    boundaryHook_ = std::move(hook);
}

void
PmHeap::crash()
{
    // A dead machine runs no hooks; dropping it here also keeps an
    // armed crash injector from re-firing during recovery replay.
    boundaryHook_ = nullptr;
    staged_.clear();
    stageArena_.clear();
    // Only pages written since the last crash can differ from durable.
    for (std::size_t word = 0; word < dirtyPages_.size(); word++) {
        std::uint64_t bits = dirtyPages_[word];
        while (bits != 0) {
            std::uint64_t begin =
                (word * 64 + static_cast<unsigned>(std::countr_zero(bits))) *
                kPageBytes;
            bits &= bits - 1;
            std::memcpy(volatileImage_.get() + begin,
                        durableImage_.get() + begin,
                        std::min(kPageBytes, capacity_ - begin));
        }
        dirtyPages_[word] = 0;
    }
    // Volatile allocator metadata (free lists) is lost.
    for (std::vector<PmOffset> &list : smallFree_)
        list.clear();
    freeLists_.clear();
    freeBytes_ = 0;
    Header header = loadHeader();
    if (header.magic != kMagic)
        panic("PmHeap: durable header corrupted across crash");
}

TickDelta
PmHeap::drainCost()
{
    TickDelta cost = accrued_;
    accrued_ = 0;
    return cost;
}

std::uint64_t
PmHeap::bytesInUse() const
{
    Header header = loadHeader();
    return header.bump - kHeaderSize - freeBytes_;
}

} // namespace pmnet::pm
