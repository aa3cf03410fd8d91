/**
 * @file
 * Focused microbenchmarks of the binary-heap event queue: near and
 * far scheduling deltas, mixed horizons, cancellation churn,
 * same-cycle bursts, closure-size effects on SmallFn storage, and
 * periodic (every()) ticking. Run with --perf-json=<path> to emit
 * the machine-readable summary the CI perf-smoke job checks.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "perf_json_main.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

using namespace v10;

/** Delta scale splitting near from far events: ~90% of the paper
 * pair workloads' scheduling deltas fall below 2^15 cycles. */
constexpr Cycles kRing = 32768;

/** Self-perpetuating chain with a fixed delta. */
struct FixedChain
{
    Simulator *sim;
    Cycles delta;
    std::uint64_t *budget;
    void
    operator()() const
    {
        if (*budget == 0)
            return;
        --*budget;
        sim->after(delta, FixedChain{*this});
    }
};

/** Schedule/fire chains with a fixed near delta. */
void
BM_RingScheduleFire(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t budget = 64 * 1024;
        for (int i = 0; i < 64; ++i)
            sim.after(100 + static_cast<Cycles>(i) * 37,
                      FixedChain{&sim, 1021, &budget});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_RingScheduleFire);

/** Chains with a fixed far delta (the long-compute tail). */
void
BM_HeapScheduleFire(benchmark::State &state)
{
    constexpr Cycles kFar = kRing * 4;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t budget = 64 * 1024;
        for (int i = 0; i < 64; ++i)
            sim.after(kFar + static_cast<Cycles>(i) * 977,
                      FixedChain{&sim, kFar + 1021, &budget});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_HeapScheduleFire);

/** 90% near / 10% far deltas — the measured workload split. */
void
BM_MixedHorizonScheduleFire(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng(7);
        std::uint64_t budget = 64 * 1024;
        struct MixChain
        {
            Simulator *sim;
            Rng *rng;
            std::uint64_t *budget;
            void
            operator()() const
            {
                if (*budget == 0)
                    return;
                --*budget;
                const bool far = (rng->next() % 10) == 0;
                const Cycles delta =
                    far ? kRing + 4093 : 1021;
                sim->after(delta, MixChain{*this});
            }
        };
        for (int i = 0; i < 64; ++i)
            sim.after(100 + static_cast<Cycles>(i) * 37,
                      MixChain{&sim, &rng, &budget});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MixedHorizonScheduleFire);

/**
 * The HBM re-estimation pattern: every fire cancels a pending event
 * and reschedules it (processor-sharing completion estimates move
 * whenever a transfer joins or leaves).
 */
void
BM_CancelRescheduleChurn(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t budget = 32 * 1024;
        EventId pending = kNoEvent;
        struct Churn
        {
            Simulator *sim;
            std::uint64_t *budget;
            EventId *pending;
            void
            operator()() const
            {
                if (*budget == 0)
                    return;
                --*budget;
                sim->cancel(*pending);
                *pending = sim->after(4099, Churn{*this});
                sim->after(509, Churn{*this});
            }
        };
        pending = sim.after(4099, [] {});
        sim.after(509, Churn{&sim, &budget, &pending});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CancelRescheduleChurn);

/** Bursts of same-cycle events, all scheduled up front. */
void
BM_SameCycleBurst(benchmark::State &state)
{
    const auto burst = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        for (Cycles c = 1; c <= 256; ++c)
            for (int i = 0; i < burst; ++i)
                sim.at(c * 64, [] { benchmark::DoNotOptimize(0); });
        sim.run();
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SameCycleBurst)->Arg(4)->Arg(32);

/** Closure-size effect: inline storage vs arena spill. */
void
BM_EventFnCaptureSize(benchmark::State &state)
{
    const bool large = state.range(0) != 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1024; ++i) {
            const Cycles when = 1 + static_cast<Cycles>(i % 251);
            if (large) {
                // Four extra words past the inline buffer: spills
                // to the queue's slab arena.
                std::uint64_t a = i, b = i + 1, c = i + 2, d = i + 3,
                              e = i + 4, f = i + 5, g = i + 6;
                sim.at(when, [&sink, a, b, c, d, e, f, g] {
                    sink += a + b + c + d + e + f + g;
                });
            } else {
                sim.at(when, [&sink] { ++sink; });
            }
        }
        sim.run();
        benchmark::DoNotOptimize(sink);
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventFnCaptureSize)->Arg(0)->Arg(1);

/** Periodic sampling through every(): tick cost. */
void
BM_PeriodicTicks(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t ticks = 0;
        sim.every(512, [&ticks] { ++ticks; });
        sim.every(1024, [&ticks] { ++ticks; });
        sim.runUntil(512 * 8192);
        benchmark::DoNotOptimize(ticks);
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PeriodicTicks);

} // namespace

int
main(int argc, char **argv)
{
    return v10::bench::perfJsonMain(argc, argv);
}
