#include "pmnet/read_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace pmnet::pmnetdev {

const char *
cacheStateName(CacheState state)
{
    switch (state) {
      case CacheState::Invalid: return "Invalid";
      case CacheState::Pending: return "Pending";
      case CacheState::Persisted: return "Persisted";
      case CacheState::Stale: return "Stale";
    }
    return "unknown";
}

ReadCache::ReadCache(std::size_t capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("ReadCache: capacity must be positive");
}

void
ReadCache::unlink(Index idx)
{
    Payload &entry = table_.entry(idx).value;
    if (entry.lruPrev != kNil)
        table_.entry(entry.lruPrev).value.lruNext = entry.lruNext;
    else
        lruHead_ = entry.lruNext;
    if (entry.lruNext != kNil)
        table_.entry(entry.lruNext).value.lruPrev = entry.lruPrev;
    else
        lruTail_ = entry.lruPrev;
    entry.lruPrev = kNil;
    entry.lruNext = kNil;
}

void
ReadCache::pushFront(Index idx)
{
    Payload &entry = table_.entry(idx).value;
    entry.lruPrev = kNil;
    entry.lruNext = lruHead_;
    if (lruHead_ != kNil)
        table_.entry(lruHead_).value.lruPrev = idx;
    lruHead_ = idx;
    if (lruTail_ == kNil)
        lruTail_ = idx;
}

ReadCache::Index
ReadCache::touch(KeyRef key)
{
    auto [idx, inserted] = table_.insert(key);
    if (!inserted)
        unlink(idx);
    pushFront(idx);
    if (inserted)
        evictIfNeeded();
    return idx;
}

void
ReadCache::evictIfNeeded()
{
    while (table_.size() > capacity_ && lruTail_ != kNil) {
        // Scan from the LRU end for an evictable (non-in-flight) entry.
        // Never evict the front (the entry being touched right now).
        Index victim = kNil;
        for (Index cur = lruTail_; cur != lruHead_;
             cur = table_.entry(cur).value.lruPrev) {
            CacheState state = table_.entry(cur).value.state;
            if (state == CacheState::Invalid ||
                state == CacheState::Persisted) {
                victim = cur;
                break;
            }
        }
        if (victim == kNil)
            break; // everything is in flight; allow temporary overflow
        unlink(victim);
        table_.eraseIndex(victim);
        evictions++;
    }
}

void
ReadCache::onUpdate(KeyRef key, std::string_view value, bool logged)
{
    Index idx = touch(key);
    Payload &entry = table_.entry(idx).value;
    if (!logged) {
        // An unlogged (bypassed) update is in flight: whatever we have
        // may be stale, and the in-flight value is not persisted in the
        // network, so the entry must not serve reads.
        if (entry.state != CacheState::Invalid) {
            entry.state = CacheState::Stale;
        } else {
            unlink(idx);
            table_.eraseIndex(idx);
        }
        return;
    }
    switch (entry.state) {
      case CacheState::Invalid:    // T1
      case CacheState::Persisted:  // T3
        entry.state = CacheState::Pending;
        entry.value.assign(
            reinterpret_cast<const std::uint8_t *>(value.data()),
            reinterpret_cast<const std::uint8_t *>(value.data()) +
                value.size());
        break;
      case CacheState::Pending:    // T4: two in-flight updates
        entry.state = CacheState::Stale;
        entry.value.clear();
        break;
      case CacheState::Stale:      // T5
        break;
    }
}

void
ReadCache::onServerAck(KeyRef key)
{
    Index idx = table_.find(key);
    if (idx == kNil)
        return;
    Payload &entry = table_.entry(idx).value;
    switch (entry.state) {
      case CacheState::Pending: // T2
        entry.state = CacheState::Persisted;
        break;
      case CacheState::Stale:   // T6
        entry.state = CacheState::Invalid;
        entry.value.clear();
        break;
      case CacheState::Invalid:
      case CacheState::Persisted:
        break; // make-up or duplicate ACKs are harmless
    }
}

void
ReadCache::onReadResponse(KeyRef key, std::string_view value)
{
    Index idx = touch(key);
    Payload &entry = table_.entry(idx).value;
    // Only fill entries with no in-flight update: a Pending entry is
    // newer than the server's reply and a Stale one cannot be trusted
    // to match any specific in-flight version.
    if (entry.state == CacheState::Invalid) {
        entry.state = CacheState::Persisted;
        entry.value.assign(
            reinterpret_cast<const std::uint8_t *>(value.data()),
            reinterpret_cast<const std::uint8_t *>(value.data()) +
                value.size());
    }
}

const Bytes *
ReadCache::lookup(KeyRef key)
{
    Index idx = table_.find(key);
    if (idx == kNil) {
        misses++;
        return nullptr;
    }
    CacheState state = table_.entry(idx).value.state;
    if (state != CacheState::Pending && state != CacheState::Persisted) {
        misses++;
        return nullptr;
    }
    hits++;
    // Move to the LRU front; the slab index is stable, only links move.
    unlink(idx);
    pushFront(idx);
    return &table_.entry(idx).value.value;
}

CacheState
ReadCache::stateOf(KeyRef key) const
{
    Index idx = table_.find(key);
    return idx == kNil ? CacheState::Invalid : table_.entry(idx).value.state;
}

void
ReadCache::clear()
{
    table_.clear();
    lruHead_ = kNil;
    lruTail_ = kNil;
}

std::vector<ReadCache::DumpEntry>
ReadCache::dump() const
{
    std::vector<DumpEntry> out;
    out.reserve(table_.size());
    table_.forEach([&out](const auto &entry) {
        out.push_back(
            DumpEntry{entry.key, entry.value.state, entry.value.value});
    });
    std::sort(out.begin(), out.end(),
              [](const DumpEntry &a, const DumpEntry &b) {
                  return a.key < b.key;
              });
    return out;
}

} // namespace pmnet::pmnetdev
