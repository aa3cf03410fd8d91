/**
 * @file
 * Unit tests for the simulation kernel: clock advancement, absolute
 * and relative scheduling, bounded runs, and stop predicates.
 */

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace v10 {
namespace {

TEST(Simulator, StartsAtCycleZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, AfterAdvancesClock)
{
    Simulator sim;
    Cycles seen = 0;
    sim.after(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, AtSchedulesAbsolute)
{
    Simulator sim;
    sim.after(10, [] {});
    sim.run();
    Cycles seen = 0;
    sim.at(25, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 25u);
}

TEST(Simulator, StepRunsExactlyOneEvent)
{
    Simulator sim;
    int count = 0;
    sim.after(1, [&] { ++count; });
    sim.after(2, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    int fired = 0;
    sim.after(10, [&] { ++fired; });
    sim.after(20, [&] { ++fired; });
    sim.after(30, [&] { ++fired; });
    sim.runUntil(20);
    EXPECT_EQ(fired, 2); // events at 10 and exactly 20 fire
    EXPECT_EQ(sim.now(), 20u);
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents)
{
    Simulator sim;
    sim.runUntil(500);
    EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, StopPredicateHaltsRun)
{
    Simulator sim;
    int fired = 0;
    for (Cycles c = 1; c <= 10; ++c)
        sim.after(c, [&] { ++fired; });
    sim.run([&] { return fired >= 4; });
    EXPECT_EQ(fired, 4);
    EXPECT_FALSE(sim.idle());
}

TEST(Simulator, CancelledEventNeverFires)
{
    Simulator sim;
    bool fired = false;
    const EventId id = sim.after(5, [&] { fired = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, EventsRunCounter)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.after(static_cast<Cycles>(i + 1), [] {});
    sim.run();
    EXPECT_EQ(sim.eventsRun(), 7u);
}

TEST(Simulator, ChainedEventsKeepConsistentNow)
{
    Simulator sim;
    std::vector<Cycles> times;
    sim.after(10, [&] {
        times.push_back(sim.now());
        sim.after(5, [&] { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10u);
    EXPECT_EQ(times[1], 15u);
}

TEST(SimulatorDeath, SchedulingIntoThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    sim.after(10, [] {});
    sim.run();
    EXPECT_DEATH(sim.at(5, [] {}), "past");
}

TEST(SimulatorDeath, AtTheEmptySentinelCyclePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    // kCycleMax is the queue's empty sentinel: an event there would
    // be silently dropped, so scheduling it must fail loudly.
    EXPECT_DEATH(sim.at(kCycleMax, [] {}), "cycle overflow");
}

TEST(SimulatorDeath, AfterReachingTheEmptySentinelCyclePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    sim.after(10, [] {});
    sim.run();
    EXPECT_DEATH(sim.after(kCycleMax - 10, [] {}), "cycle overflow");
    // One cycle short of the sentinel is still a legal target.
    bool fired = false;
    sim.after(kCycleMax - 11, [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), kCycleMax - 1);
}

TEST(Simulator, EveryFiresAtEachInterval)
{
    Simulator sim;
    std::vector<Cycles> ticks;
    sim.every(10, [&] { ticks.push_back(sim.now()); });
    sim.runUntil(35);
    EXPECT_EQ(ticks, (std::vector<Cycles>{10, 20, 30}));
}

TEST(Simulator, CancelEveryStopsTicks)
{
    Simulator sim;
    int ticks = 0;
    const PeriodicId id = sim.every(5, [&] { ++ticks; });
    sim.runUntil(12);
    EXPECT_EQ(ticks, 2);
    sim.cancelEvery(id);
    sim.runUntil(100);
    EXPECT_EQ(ticks, 2);
    EXPECT_TRUE(sim.idle());
    sim.cancelEvery(id);          // double cancel: harmless
    sim.cancelEvery(kNoPeriodic); // unknown ids: harmless
    sim.cancelEvery(9999);
}

TEST(Simulator, CancelEveryFromInsideItsOwnCallback)
{
    Simulator sim;
    int ticks = 0;
    PeriodicId id = kNoPeriodic;
    id = sim.every(3, [&] {
        if (++ticks == 2)
            sim.cancelEvery(id);
    });
    sim.run();
    EXPECT_EQ(ticks, 2);
    EXPECT_EQ(sim.now(), 6u);
}

TEST(Simulator, MultiplePeriodicsInterleaveDeterministically)
{
    Simulator sim;
    std::vector<int> order;
    const PeriodicId a = sim.every(4, [&] { order.push_back(1); });
    sim.every(6, [&] { order.push_back(2); });
    sim.runUntil(12);
    // Cycle 12: both fire; the one whose re-arm was scheduled
    // earlier (b, at cycle 6) ticks first — pure insertion order.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1}));
    sim.cancelEvery(a);
    sim.runUntil(18);
    EXPECT_EQ(order.back(), 2);
}

TEST(Simulator, PeriodicRegisteredInsideCallback)
{
    Simulator sim;
    int inner = 0;
    sim.after(5, [&] {
        sim.every(2, [&] { ++inner; });
    });
    sim.runUntil(11);
    EXPECT_EQ(inner, 3); // ticks at 7, 9, 11
}

TEST(SimulatorDeath, ZeroIntervalEveryPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    EXPECT_DEATH(sim.every(0, [] {}), "interval");
}

TEST(Simulator, BatchedRunMatchesStepping)
{
    // run() must replay the exact per-event order that
    // single-stepping produces, including same-cycle chains.
    const auto drive = [](Simulator &sim, std::vector<int> &order) {
        for (int i = 0; i < 8; ++i)
            sim.after(static_cast<Cycles>(1 + (i * 5) % 7),
                      [&order, i] { order.push_back(i); });
        sim.after(3, [&sim, &order] {
            order.push_back(100);
            sim.after(0, [&order] { order.push_back(101); });
        });
    };
    Simulator batched;
    std::vector<int> batched_order;
    drive(batched, batched_order);
    batched.run();

    Simulator stepped;
    std::vector<int> stepped_order;
    drive(stepped, stepped_order);
    while (stepped.step()) {
    }
    EXPECT_EQ(batched_order, stepped_order);
    EXPECT_EQ(batched.eventsRun(), stepped.eventsRun());
}

} // namespace
} // namespace v10
