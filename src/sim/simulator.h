/**
 * @file
 * Discrete-event simulation core.
 *
 * Every component of the reproduced testbed (hosts, links, switches,
 * PMNet devices, PM media) advances time by scheduling callbacks on a
 * single Simulator. Events at the same tick fire in scheduling order,
 * which makes runs fully deterministic for a given seed.
 *
 * The hot path is allocation-free (DESIGN.md "Simulator internals"):
 * event records live in a slab recycled through a free-list, the ready
 * queue is a 4-ary heap of plain 24-byte entries, cancellation is an
 * O(1) generation-counter check, and callbacks are stored in an
 * inline small-buffer type so the common `schedule(d, [this]{...})`
 * call touches the allocator only when the slab itself grows.
 */

#ifndef PMNET_SIM_SIMULATOR_H
#define PMNET_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.h"

namespace pmnet::sim {

/**
 * Move-only callable with inline storage for captures up to 48 bytes.
 *
 * The simulator's event callbacks almost always capture a `this`
 * pointer plus a couple of words (an epoch counter, a PacketPtr); a
 * std::function would heap-allocate for several of those shapes and
 * always costs an indirect copyable-wrapper. This type stores such
 * captures inline in the event slab slot and only falls back to the
 * heap for oversized lambdas.
 */
class EventCallback
{
  public:
    /** Captures at or below this size are stored inline. */
    static constexpr std::size_t kInlineBytes = 48;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT: implicit by design, like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "EventCallback requires a void() callable");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (storage_) Fn(std::forward<F>(fn));
            invoke_ = [](void *s) { (*static_cast<Fn *>(s))(); };
            relocate_ = [](void *dst, void *src) {
                Fn *f = static_cast<Fn *>(src);
                new (dst) Fn(std::move(*f));
                f->~Fn();
            };
            destroy_ = [](void *s) { static_cast<Fn *>(s)->~Fn(); };
        } else {
            Fn *heap = new Fn(std::forward<F>(fn));
            std::memcpy(storage_, &heap, sizeof(heap));
            invoke_ = [](void *s) { (*heapPtr<Fn>(s))(); };
            relocate_ = [](void *dst, void *src) {
                std::memcpy(dst, src, sizeof(void *));
            };
            destroy_ = [](void *s) { delete heapPtr<Fn>(s); };
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void operator()() { invoke_(storage_); }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Destroy the stored callable (captures release immediately). */
    void
    reset()
    {
        if (invoke_) {
            destroy_(storage_);
            invoke_ = nullptr;
        }
    }

  private:
    template <typename Fn>
    static Fn *
    heapPtr(void *s)
    {
        Fn *f;
        std::memcpy(&f, s, sizeof(f));
        return f;
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        if (!other.invoke_)
            return;
        other.relocate_(storage_, other.storage_);
        invoke_ = other.invoke_;
        relocate_ = other.relocate_;
        destroy_ = other.destroy_;
        other.invoke_ = nullptr;
    }

    using InvokeFn = void (*)(void *);
    using RelocateFn = void (*)(void *dst, void *src);
    using DestroyFn = void (*)(void *);

    InvokeFn invoke_ = nullptr;
    RelocateFn relocate_ = nullptr;
    DestroyFn destroy_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/** Callback type executed when an event fires. */
using EventFn = EventCallback;

class Simulator;

/**
 * Handle to a scheduled event, used for cancellation (e.g. client
 * timeout timers disarmed when the ACK arrives). Default-constructed
 * handles are inert. A handle is a (slot, generation) pair into the
 * simulator's event slab: once the event fires or is cancelled the
 * slot's generation moves on and the handle becomes a harmless no-op,
 * even if the slot has been recycled for a new event. Handles must
 * not be used after their Simulator is destroyed.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Prevent the event from firing. Safe to call repeatedly. */
    void cancel();

    /** True if the event is still scheduled and not cancelled. */
    bool pending() const;

  private:
    friend class Simulator;
    EventHandle(Simulator *simulator, std::uint32_t slot,
                std::uint32_t generation)
        : sim_(simulator), slot_(slot), gen_(generation)
    {}

    Simulator *sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * The event-driven simulator.
 *
 * Single-threaded: components call schedule()/scheduleAt() and the
 * driver calls run(). Time never moves backwards. Distinct Simulator
 * instances are fully independent, so independent systems may run on
 * different threads concurrently (the sweep harness relies on this).
 *
 * Ordering: events fire by (when, seq), where `seq` is a per-simulator
 * counter assigned in scheduling order, so same-tick events fire in
 * the order they were scheduled.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay ns from now.
     * @pre delay >= 0.
     */
    EventHandle schedule(TickDelta delay, EventFn fn);

    /**
     * Schedule @p fn at absolute time @p when.
     * @pre when >= now().
     */
    EventHandle scheduleAt(Tick when, EventFn fn);

    /**
     * Run until the queue is empty or the time limit is reached.
     * @param until stop once the next event would fire after this tick
     *              (kTickMax = run to completion).
     * @return number of events executed.
     */
    std::uint64_t run(Tick until = kTickMax);

    /** Request run() to return after the current event completes. */
    void stop();

    /** @name External (wall-clock) driver interface — gateway mode
     *
     * A gateway runtime (src/gateway) embeds a Simulator and keeps
     * its clock locked to real time: it asks when the next timer is
     * due, arms an OS timer for that instant, and on every wakeup
     * advances the simulation to the wall-derived tick. Both calls
     * are additive — sim-mode drivers never need them.
     *  @{
     */

    /** Tick of the earliest live event; kTickMax when idle. Pops
     *  cancelled stale heap tops as a side effect. */
    Tick nextEventAt();

    /**
     * Execute every event due at or before @p when, then move the
     * clock to exactly @p when even if later events remain — unlike
     * run(), which leaves now() at the last executed event when the
     * queue is non-empty. @pre when >= now().
     * @return number of events executed.
     */
    std::uint64_t advanceTo(Tick when);
    /** @} */

    /** True if no live (uncancelled, unfired) events remain. */
    bool idle() const { return live_ == 0; }

    /** Total events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Live events currently scheduled (diagnostics). */
    std::uint64_t pendingEvents() const { return live_; }

    /** Event-record slots ever allocated (diagnostics/tests). */
    std::size_t slabSize() const { return slots_.size(); }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /**
     * One recyclable event record. `gen` advances every time the slot
     * is released (fire or cancel), invalidating outstanding handles
     * and orphaned heap entries in O(1).
     */
    struct Slot
    {
        EventCallback fn;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
    };

    /**
     * Heap entries are plain values ordered by (when, seq); `gen` is
     * compared against the slot on pop so cancelled events are skipped
     * lazily without heap surgery.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };
    static_assert(sizeof(HeapEntry) == 24);

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);
    bool cancelEvent(std::uint32_t slot, std::uint32_t gen);
    bool eventPending(std::uint32_t slot, std::uint32_t gen) const;

    void heapPush(HeapEntry entry);
    void heapPop();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t live_ = 0;
    bool stopRequested_ = false;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    std::vector<HeapEntry> heap_; ///< 4-ary min-heap
};

/**
 * Base class for named simulation components. Provides convenient
 * access to the shared Simulator and a stable name for diagnostics.
 */
class SimObject
{
  public:
    SimObject(Simulator &simulator, std::string object_name)
        : sim_(simulator), name_(std::move(object_name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulator &simulator() { return sim_; }
    Tick now() const { return sim_.now(); }

  protected:
    EventHandle
    schedule(TickDelta delay, EventFn fn)
    {
        return sim_.schedule(delay, std::move(fn));
    }

  private:
    Simulator &sim_;
    std::string name_;
};

} // namespace pmnet::sim

#endif // PMNET_SIM_SIMULATOR_H
