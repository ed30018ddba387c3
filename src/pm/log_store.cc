#include "pm/log_store.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace pmnet::pm {

PmLogStore::PmLogStore(DevicePmConfig config)
    : config_(config),
      slotCount_(static_cast<std::size_t>(config_.slotCount()))
{
    if (slotCount_ == 0)
        fatal("PmLogStore: capacity %llu smaller than one slot (%u)",
              static_cast<unsigned long long>(config_.capacityBytes),
              config_.slotBytes);
    occupied_.resize((slotCount_ + 63) / 64, 0);
}

std::size_t
PmLogStore::indexFor(std::uint32_t hash) const
{
    return static_cast<std::size_t>(hash % slotCount_);
}

bool
PmLogStore::occupiedAt(std::size_t index) const
{
    return (occupied_[index / 64] >> (index % 64)) & 1;
}

void
PmLogStore::markOccupied(std::size_t index, bool occupied)
{
    std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if (occupied)
        occupied_[index / 64] |= bit;
    else
        occupied_[index / 64] &= ~bit;
}

std::size_t
PmLogStore::probe(std::size_t index, std::size_t want) const
{
    std::size_t mask = cells_.size() - 1;
    std::size_t cell = index & mask;
    while (cells_[cell].index != want)
        cell = (cell + 1) & mask;
    return cell;
}

void
PmLogStore::grow()
{
    std::vector<LiveSlot> old =
        std::exchange(cells_, std::vector<LiveSlot>(cells_.size() * 2));
    for (LiveSlot &slot : old) {
        if (slot.index != kNoSlot)
            cells_[probe(slot.index, kNoSlot)] = std::move(slot);
    }
}

LogInsertResult
PmLogStore::insert(std::uint32_t hash, net::PacketPtr pkt, Tick now)
{
    if (pkt->wireSize() > config_.slotBytes) {
        return LogInsertResult::TooLarge;
    }
    std::size_t index = indexFor(hash);
    if (occupiedAt(index)) {
        if (cells_[probe(index, index)].entry.hashVal == hash) {
            insertDuplicate++;
            return LogInsertResult::Duplicate;
        }
        insertCollision++;
        return LogInsertResult::Collision;
    }
    if ((live_ + 1) * 2 > cells_.size())
        grow();
    LiveSlot &slot = cells_[probe(index, kNoSlot)];
    slot = LiveSlot{index, LogEntry{hash, std::move(pkt), now}};
    markOccupied(index, true);
    live_++;
    highWater = std::max(highWater, live_);
    insertOk++;
    if (observer_)
        observer_->onLogInsert(slot.entry);
    return LogInsertResult::Ok;
}

const LogEntry *
PmLogStore::lookup(std::uint32_t hash) const
{
    std::size_t index = indexFor(hash);
    if (!occupiedAt(index))
        return nullptr;
    const LogEntry &entry = cells_[probe(index, index)].entry;
    return entry.hashVal == hash ? &entry : nullptr;
}

bool
PmLogStore::slotFree(std::uint32_t hash) const
{
    return !occupiedAt(indexFor(hash));
}

bool
PmLogStore::erase(std::uint32_t hash)
{
    std::size_t index = indexFor(hash);
    if (!occupiedAt(index))
        return false;
    std::size_t cell = probe(index, index);
    if (cells_[cell].entry.hashVal != hash)
        return false;
    cells_[cell] = LiveSlot{};
    markOccupied(index, false);
    live_--;
    if (observer_)
        observer_->onLogErase(hash);
    return true;
}

void
PmLogStore::forEach(const std::function<void(const LogEntry &)> &fn) const
{
    std::uint64_t left = live_;
    for (std::size_t word = 0; left > 0 && word < occupied_.size();
         word++) {
        std::uint64_t bits = occupied_[word];
        while (bits != 0) {
            int offset = std::countr_zero(bits);
            bits &= bits - 1; // clear lowest set bit
            std::size_t index = word * 64 + static_cast<std::size_t>(offset);
            fn(cells_[probe(index, index)].entry);
            left--;
        }
    }
}

void
PmLogStore::clear()
{
    std::fill(cells_.begin(), cells_.end(), LiveSlot{});
    std::fill(occupied_.begin(), occupied_.end(), 0);
    live_ = 0;
    if (observer_)
        observer_->onLogClear();
}

} // namespace pmnet::pm
