/**
 * @file
 * Unit tests for the discrete-event simulator core.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace pmnet::sim {
namespace {

TEST(Simulator, StartsAtZeroAndIdle)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(300, [&]() { order.push_back(3); });
    sim.schedule(100, [&]() { order.push_back(1); });
    sim.schedule(200, [&]() { order.push_back(2); });
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, SameTickFifoOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; i++)
        sim.schedule(50, [&order, i]() { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling)
{
    Simulator sim;
    std::vector<Tick> fired;
    sim.schedule(10, [&]() {
        fired.push_back(sim.now());
        sim.schedule(5, [&]() { fired.push_back(sim.now()); });
    });
    sim.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 15}));
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime)
{
    Simulator sim;
    bool inner = false;
    sim.schedule(7, [&]() {
        sim.schedule(0, [&]() { inner = true; });
    });
    sim.run();
    EXPECT_TRUE(inner);
    EXPECT_EQ(sim.now(), 7);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(100, [&]() { fired++; });
    sim.schedule(200, [&]() { fired++; });
    EXPECT_EQ(sim.run(150), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsFiring)
{
    Simulator sim;
    bool fired = false;
    EventHandle handle = sim.schedule(10, [&]() { fired = true; });
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, HandleNotPendingAfterFiring)
{
    Simulator sim;
    EventHandle handle = sim.schedule(10, []() {});
    sim.run();
    EXPECT_FALSE(handle.pending());
}

TEST(Simulator, DefaultHandleIsInert)
{
    EventHandle handle;
    EXPECT_FALSE(handle.pending());
    handle.cancel(); // must not crash
}

TEST(Simulator, StopRequestHalts)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1, [&]() {
        fired++;
        sim.stop();
    });
    sim.schedule(2, [&]() { fired++; });
    sim.run();
    EXPECT_EQ(fired, 1);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsExecutedAccumulates)
{
    Simulator sim;
    for (int i = 0; i < 5; i++)
        sim.schedule(i, []() {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 5u);
}

TEST(Simulator, ManyEventsStressOrder)
{
    Simulator sim;
    Tick last = -1;
    bool monotonic = true;
    for (int i = 0; i < 10000; i++) {
        Tick when = (i * 7919) % 1000;
        sim.schedule(when, [&, when]() {
            if (sim.now() < last)
                monotonic = false;
            last = sim.now();
            (void)when;
        });
    }
    sim.run();
    EXPECT_TRUE(monotonic);
}

// ------------------------------------------- slab/generation details

TEST(Simulator, StaleHandleAfterSlotReuseIsNoOp)
{
    Simulator sim;
    bool victim_fired = false;

    // Schedule and cancel: the slot returns to the free-list.
    EventHandle stale = sim.schedule(10, [&]() { victim_fired = true; });
    stale.cancel();

    // The next schedule recycles the same slot under a new generation.
    bool reused_fired = false;
    EventHandle fresh = sim.schedule(20, [&]() { reused_fired = true; });

    // The stale handle must neither report pending nor cancel the
    // recycled slot's new occupant.
    EXPECT_FALSE(stale.pending());
    stale.cancel();
    EXPECT_TRUE(fresh.pending());

    sim.run();
    EXPECT_FALSE(victim_fired);
    EXPECT_TRUE(reused_fired);
}

TEST(Simulator, StaleHandleAfterFireAndReuseIsNoOp)
{
    Simulator sim;
    EventHandle first = sim.schedule(1, []() {});
    sim.run();

    // Firing released the slot; a new event takes it over.
    bool second_fired = false;
    sim.schedule(1, [&]() { second_fired = true; });
    EXPECT_FALSE(first.pending());
    first.cancel(); // must not touch the new occupant
    sim.run();
    EXPECT_TRUE(second_fired);
}

TEST(Simulator, SameTickFifoSurvivesFreeListRecycling)
{
    Simulator sim;
    std::vector<int> order;

    // Churn the free-list so later schedules reuse earlier slots in
    // arbitrary slab positions.
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 8; i++)
        doomed.push_back(sim.schedule(50, [&]() { order.push_back(-1); }));
    for (auto &handle : doomed)
        handle.cancel();

    for (int i = 0; i < 8; i++)
        sim.schedule(50, [&order, i]() { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, SlabRecyclesInsteadOfGrowing)
{
    Simulator sim;
    // Sequential schedule/fire cycles must recycle one slot, not grow
    // the slab per event.
    for (int i = 0; i < 1000; i++)
        sim.schedule(i, []() {});
    sim.run();
    std::size_t after_burst = sim.slabSize();
    for (int i = 0; i < 10000; i++) {
        sim.schedule(1, []() {});
        sim.run();
    }
    EXPECT_EQ(sim.slabSize(), after_burst);
}

TEST(Simulator, StopMidEventLeavesRestRunnableInOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(5, [&]() {
        order.push_back(0);
        sim.stop();
    });
    sim.schedule(5, [&]() { order.push_back(1); });
    sim.schedule(5, [&]() { order.push_back(2); });

    EXPECT_EQ(sim.run(), 1u);
    EXPECT_FALSE(sim.idle());
    EXPECT_EQ(sim.now(), 5);

    // The same-tick events left behind still fire in FIFO order.
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CancelledEventsDoNotCountAsLive)
{
    Simulator sim;
    EventHandle h1 = sim.schedule(10, []() {});
    EventHandle h2 = sim.schedule(20, []() {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    h1.cancel();
    h2.cancel();
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(sim.run(), 0u);
}

TEST(EventCallback, LargeCapturesFallBackToHeap)
{
    // Captures beyond the inline budget must still work (heap path).
    Simulator sim;
    struct Big
    {
        char bytes[200];
    } big{};
    big.bytes[0] = 42;
    char seen = 0;
    sim.schedule(1, [big, &seen]() { seen = big.bytes[0]; });
    sim.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventCallback, MoveOnlyCaptureSupported)
{
    Simulator sim;
    auto payload = std::make_unique<int>(7);
    int seen = 0;
    sim.schedule(1, [payload = std::move(payload), &seen]() {
        seen = *payload;
    });
    sim.run();
    EXPECT_EQ(seen, 7);
}

TEST(SimObject, NameAndScheduling)
{
    Simulator sim;

    struct Probe : SimObject
    {
        using SimObject::SimObject;
        int fired = 0;
        void
        arm()
        {
            schedule(5, [this]() { fired++; });
        }
    };

    Probe probe(sim, "probe0");
    EXPECT_EQ(probe.name(), "probe0");
    probe.arm();
    sim.run();
    EXPECT_EQ(probe.fired, 1);
    EXPECT_EQ(probe.now(), 5);
}

// ---------------------------------------------------------------------
// External driver interface (advanceTo / nextEventAt), as a wall-clock
// runtime drives it: ask for the next deadline, advance to a tick.

TEST(Simulator, AdvanceToFiresEveryEventAtOrBeforeTarget)
{
    Simulator sim;
    std::vector<Tick> fired;
    auto record = [&]() { fired.push_back(sim.now()); };
    sim.scheduleAt(10, record);
    sim.scheduleAt(20, record);
    sim.scheduleAt(30, [&]() {
        record();
        sim.schedule(0, record); // same tick, scheduled mid-advance
    });
    sim.scheduleAt(31, record);

    EXPECT_EQ(sim.advanceTo(30), 4u);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30, 30}));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.nextEventAt(), 31);
}

TEST(Simulator, AdvanceToMovesClockToTargetWithLaterEventsPending)
{
    Simulator sim;
    sim.scheduleAt(100, []() {});
    sim.scheduleAt(500, []() {});

    sim.advanceTo(250);
    EXPECT_EQ(sim.now(), 250);
    EXPECT_FALSE(sim.idle());

    // Relative schedules after the advance count from the target.
    Tick fired_at = 0;
    sim.schedule(5, [&]() { fired_at = sim.now(); });
    sim.advanceTo(400);
    EXPECT_EQ(fired_at, 255);
    EXPECT_EQ(sim.now(), 400);
    EXPECT_EQ(sim.nextEventAt(), 500);
}

TEST(Simulator, NextEventAtSkipsCancelledTop)
{
    Simulator sim;
    EventHandle early = sim.scheduleAt(10, []() {});
    sim.scheduleAt(40, []() {});
    EXPECT_EQ(sim.nextEventAt(), 10);

    early.cancel();
    EXPECT_EQ(sim.nextEventAt(), 40);
    EXPECT_EQ(sim.advanceTo(40), 1u);
}

TEST(Simulator, NextEventAtIsTickMaxWhenIdle)
{
    Simulator sim;
    EXPECT_EQ(sim.nextEventAt(), kTickMax);

    EventHandle only = sim.scheduleAt(10, []() {});
    only.cancel();
    EXPECT_EQ(sim.nextEventAt(), kTickMax);

    sim.scheduleAt(20, []() {});
    sim.advanceTo(20);
    EXPECT_EQ(sim.nextEventAt(), kTickMax);
}

TEST(Simulator, SameTickOrderHoldsAcrossAdvanceToBoundary)
{
    // Tick-100 events scheduled before and after an advance to 50
    // fire in the order they were scheduled.
    Simulator sim;
    std::vector<int> order;
    sim.scheduleAt(100, [&]() { order.push_back(1); });
    sim.scheduleAt(100, [&]() { order.push_back(2); });
    sim.advanceTo(50);
    sim.scheduleAt(100, [&]() { order.push_back(3); });
    sim.schedule(50, [&]() { order.push_back(4); });

    sim.advanceTo(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(sim.now(), 100);
}

} // namespace
} // namespace pmnet::sim
