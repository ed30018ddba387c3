#include "sim/simulator.h"

#include "common/logging.h"

namespace pmnet::sim {

void
EventHandle::cancel()
{
    if (sim_ && sim_->cancelEvent(slot_, gen_))
        sim_ = nullptr;
}

bool
EventHandle::pending() const
{
    return sim_ && sim_->eventPending(slot_, gen_);
}

std::uint32_t
Simulator::acquireSlot()
{
    if (freeHead_ != kNoSlot) {
        std::uint32_t slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
        return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
Simulator::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.fn.reset();
    s.gen++;
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

bool
Simulator::cancelEvent(std::uint32_t slot, std::uint32_t gen)
{
    if (slot >= slots_.size() || slots_[slot].gen != gen)
        return false; // already fired/cancelled; slot may be recycled
    releaseSlot(slot);
    live_--;
    return true;
}

bool
Simulator::eventPending(std::uint32_t slot, std::uint32_t gen) const
{
    return slot < slots_.size() && slots_[slot].gen == gen;
}

void
Simulator::heapPush(HeapEntry entry)
{
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
Simulator::heapPop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.empty())
        return;
    std::size_t i = 0;
    const std::size_t size = heap_.size();
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= size)
            break;
        std::size_t last = first + 4 < size ? first + 4 : size;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; c++) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], heap_[i]))
            break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

EventHandle
Simulator::schedule(TickDelta delay, EventFn fn)
{
    if (delay < 0)
        panic("Simulator::schedule: negative delay %lld",
              static_cast<long long>(delay));
    return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle
Simulator::scheduleAt(Tick when, EventFn fn)
{
    if (when < now_)
        panic("Simulator::scheduleAt: time %lld is in the past (now %lld)",
              static_cast<long long>(when), static_cast<long long>(now_));
    std::uint32_t slot = acquireSlot();
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    heapPush(HeapEntry{when, nextSeq_++, slot, s.gen});
    live_++;
    return EventHandle(this, slot, s.gen);
}

void
Simulator::stop()
{
    stopRequested_ = true;
}

std::uint64_t
Simulator::run(Tick until)
{
    std::uint64_t fired = 0;
    stopRequested_ = false;
    while (!heap_.empty() && !stopRequested_) {
        HeapEntry top = heap_.front();
        if (top.gen != slots_[top.slot].gen) {
            heapPop(); // cancelled: slot already recycled
            continue;
        }
        if (top.when > until)
            break;
        heapPop();
        now_ = top.when;
        // Move the callback out and recycle the slot *before* firing
        // so the callback may freely schedule (and reuse the slot).
        EventCallback fn = std::move(slots_[top.slot].fn);
        releaseSlot(top.slot);
        live_--;
        fn();
        fired++;
        executed_++;
    }
    if (heap_.empty() && now_ < until && until != kTickMax)
        now_ = until;
    return fired;
}

std::uint64_t
Simulator::advanceTo(Tick when)
{
    if (when < now_)
        panic("Simulator::advanceTo: target %lld is before now %lld",
              static_cast<long long>(when),
              static_cast<long long>(now_));
    std::uint64_t fired = run(when);
    if (now_ < when)
        now_ = when;
    return fired;
}

Tick
Simulator::nextEventAt()
{
    while (!heap_.empty()) {
        const HeapEntry &top = heap_.front();
        if (top.gen == slots_[top.slot].gen)
            return top.when;
        heapPop();
    }
    return kTickMax;
}

} // namespace pmnet::sim
