/**
 * @file
 * Differential test of the simulation kernel against a deliberately
 * naive reference: a vector kept sorted by (cycle, seq) and stepped
 * one event at a time. Rng-seeded random programs drive both through
 * the same calls — at, after, cancel (of live, fired, already
 * cancelled and null handles), every/cancelEvery, callbacks that
 * schedule at the current cycle, and mixed step()/run()/runUntil() —
 * with deltas from zero to several times 2^15 cycles. The fire order,
 * now() and eventsRun() must agree exactly at every event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace v10 {
namespace {

/** The delta scale: most deltas of real runs fall below 2^15. */
constexpr Cycles kRing = 32768;

/** Token meaning "no event" (cancel(kNoEvent) on the real kernel). */
constexpr std::size_t kNoToken = ~std::size_t{0};

/** The scheduling surface a random program drives. Tokens number
 * one-shot events in scheduling order. */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;
    virtual ~Engine() = default;

    virtual void at(Cycles when, std::size_t token) = 0;
    virtual void after(Cycles delta, std::size_t token) = 0;
    virtual void cancel(std::size_t token) = 0;
    virtual PeriodicId every(Cycles interval, std::size_t index) = 0;
    virtual void cancelEvery(PeriodicId id) = 0;
    virtual bool step() = 0;
    virtual void run() = 0;
    virtual void runUntil(Cycles limit) = 0;
    virtual Cycles now() const = 0;
    virtual std::uint64_t eventsRun() const = 0;
};

/** One observation: what fired (or a checkpoint) and the clock. */
struct Record
{
    char kind; ///< 'E' event, 'P' periodic tick, 'C' checkpoint
    std::size_t token;
    Cycles now;
    std::uint64_t events;

    bool
    operator==(const Record &o) const
    {
        return kind == o.kind && token == o.token && now == o.now &&
               events == o.events;
    }
};

/**
 * A random program. Every decision comes from one Rng, so two engines
 * that fire events in the same order see the same program; the first
 * divergence in order changes everything after it.
 */
class Program
{
  public:
    explicit Program(std::uint64_t seed) : rng_(seed) {}

    // The engines' callbacks hold its address.
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    void bind(Engine &engine) { engine_ = &engine; }

    /** A one-shot event fired. */
    void
    fire(std::size_t token)
    {
        record('E', token);
        react();
    }

    /** A periodic ticked; it ends itself at random and always once
     * the scheduling budget is spent, so every program terminates. */
    void
    tick(std::size_t index)
    {
        record('P', index);
        if (budget_ == 0 || rng_.bernoulli(0.1))
            engine_->cancelEvery(handles_[index]);
        react();
    }

    std::vector<Record>
    drive()
    {
        for (int i = 0; i < 8; ++i)
            scheduleOne();
        for (int phase = 0; phase < 40; ++phase) {
            switch (rng_.uniformInt(4)) {
            case 0:
                for (auto n = 1 + rng_.uniformInt(8); n > 0; --n)
                    engine_->step();
                break;
            case 1:
                engine_->runUntil(engine_->now() + drawDelta());
                break;
            case 2:
                react(); // schedules and cancels from outside events
                break;
            default:
                if (rng_.bernoulli(0.2))
                    engine_->run();
                else
                    engine_->step();
                break;
            }
            record('C', 0);
        }
        engine_->run();
        record('C', 0);
        return log_;
    }

  private:
    void
    record(char kind, std::size_t token)
    {
        log_.push_back(
            Record{kind, token, engine_->now(), engine_->eventsRun()});
    }

    /** Same cycle, near, around 2^15, below it, or far beyond. */
    Cycles
    drawDelta()
    {
        switch (rng_.uniformInt(5)) {
        case 0:
            return 0;
        case 1:
            return 1 + rng_.uniformInt(64);
        case 2:
            return kRing - 3 + rng_.uniformInt(6);
        case 3:
            return rng_.uniformInt(kRing);
        default:
            return kRing + rng_.uniformInt(3 * kRing);
        }
    }

    void
    scheduleOne()
    {
        if (budget_ == 0)
            return;
        --budget_;
        const Cycles delta = drawDelta();
        const std::size_t token = next_token_++;
        if (rng_.bernoulli(0.5))
            engine_->at(engine_->now() + delta, token);
        else
            engine_->after(delta, token);
    }

    void
    react()
    {
        for (auto n = rng_.uniformInt(3); n > 0; --n)
            scheduleOne();
        if (rng_.bernoulli(0.3)) {
            // Any token ever handed out: live, fired or cancelled.
            engine_->cancel(rng_.bernoulli(0.1) || next_token_ == 0
                                ? kNoToken
                                : rng_.uniformInt(next_token_));
        }
        if (budget_ > 0 && handles_.size() < 6 &&
            rng_.bernoulli(0.03)) {
            const Cycles interval =
                1 + rng_.uniformInt(rng_.bernoulli(0.5) ? 64 : 2 * kRing);
            const std::size_t index = handles_.size();
            handles_.push_back(engine_->every(interval, index));
        }
        if (rng_.bernoulli(0.03)) {
            // Includes kNoPeriodic and already-ended periodics.
            engine_->cancelEvery(rng_.uniformInt(handles_.size() + 1));
        }
    }

    Rng rng_;
    Engine *engine_ = nullptr;
    std::uint64_t budget_ = 300;
    std::size_t next_token_ = 0;
    std::vector<PeriodicId> handles_;
    std::vector<Record> log_;
};

/** The kernel under test. */
class RealEngine final : public Engine
{
  public:
    explicit RealEngine(Program &program) : program_(program) {}

    void
    at(Cycles when, std::size_t token) override
    {
        ids_.push_back(
            sim_.at(when, [this, token] { program_.fire(token); }));
    }

    void
    after(Cycles delta, std::size_t token) override
    {
        ids_.push_back(
            sim_.after(delta, [this, token] { program_.fire(token); }));
    }

    void
    cancel(std::size_t token) override
    {
        sim_.cancel(token == kNoToken ? kNoEvent : ids_[token]);
    }

    PeriodicId
    every(Cycles interval, std::size_t index) override
    {
        return sim_.every(interval,
                          [this, index] { program_.tick(index); });
    }

    void cancelEvery(PeriodicId id) override { sim_.cancelEvery(id); }
    bool step() override { return sim_.step(); }
    void run() override { sim_.run(); }
    void runUntil(Cycles limit) override { sim_.runUntil(limit); }
    Cycles now() const override { return sim_.now(); }
    std::uint64_t eventsRun() const override { return sim_.eventsRun(); }

  private:
    Program &program_;
    Simulator sim_;
    std::vector<EventId> ids_;
};

/** The naive reference: sorted vector, linear cancel, one event per
 * step, periodics re-armed after their callback. */
class ReferenceEngine final : public Engine
{
  public:
    explicit ReferenceEngine(Program &program) : program_(program) {}

    void
    at(Cycles when, std::size_t token) override
    {
        seq_of_token_.push_back(insert(when, token, false));
    }

    void
    after(Cycles delta, std::size_t token) override
    {
        at(now_ + delta, token);
    }

    void
    cancel(std::size_t token) override
    {
        if (token == kNoToken)
            return;
        if (erase(seq_of_token_[token]))
            ++live_cancels;
        else
            ++dead_cancels;
    }

    PeriodicId
    every(Cycles interval, std::size_t index) override
    {
        periodics_.push_back(Periodic{interval, true, 0, index});
        const std::size_t slot = periodics_.size() - 1;
        periodics_[slot].pending = insert(now_ + interval, slot, true);
        return periodics_.size();
    }

    void
    cancelEvery(PeriodicId id) override
    {
        if (id == kNoPeriodic || id > periodics_.size())
            return;
        Periodic &p = periodics_[id - 1];
        if (!p.active)
            return;
        p.active = false;
        erase(p.pending);
    }

    bool
    step() override
    {
        if (queue_.empty())
            return false;
        const Pending e = queue_.front();
        queue_.erase(queue_.begin());
        now_ = e.when;
        if (e.periodic) {
            ++ticks;
            program_.tick(periodics_[e.token].index);
            // The callback may have registered periodics
            // (reallocating the vector) or cancelled this one.
            Periodic &p = periodics_[e.token];
            if (p.active)
                p.pending = insert(now_ + p.interval, e.token, true);
        } else {
            program_.fire(e.token);
        }
        // An event counts once its callback has run.
        ++events_run_;
        return true;
    }

    void
    run() override
    {
        while (step()) {
        }
    }

    void
    runUntil(Cycles limit) override
    {
        while (!queue_.empty() && queue_.front().when <= limit)
            step();
        now_ = std::max(now_, limit);
    }

    Cycles now() const override { return now_; }
    std::uint64_t eventsRun() const override { return events_run_; }

    /** Coverage counters: cancels that removed a pending event,
     * cancels of fired or already-cancelled ones, periodic ticks. */
    std::uint64_t live_cancels = 0;
    std::uint64_t dead_cancels = 0;
    std::uint64_t ticks = 0;

  private:
    struct Pending
    {
        Cycles when;
        std::uint64_t seq;
        std::size_t token; ///< event token, or periodic slot
        bool periodic;
    };

    struct Periodic
    {
        Cycles interval;
        bool active;
        std::uint64_t pending; ///< seq of the armed tick
        std::size_t index;     ///< the program's periodic index
    };

    std::uint64_t
    insert(Cycles when, std::size_t token, bool periodic)
    {
        const Pending e{when, next_seq_++, token, periodic};
        const auto pos = std::upper_bound(
            queue_.begin(), queue_.end(), e,
            [](const Pending &a, const Pending &b) {
                return a.when != b.when ? a.when < b.when
                                        : a.seq < b.seq;
            });
        queue_.insert(pos, e);
        return e.seq;
    }

    bool
    erase(std::uint64_t seq)
    {
        const auto it =
            std::find_if(queue_.begin(), queue_.end(),
                         [seq](const Pending &e) { return e.seq == seq; });
        if (it == queue_.end())
            return false;
        queue_.erase(it);
        return true;
    }

    Program &program_;
    std::vector<Pending> queue_;
    std::vector<std::uint64_t> seq_of_token_;
    std::vector<Periodic> periodics_;
    std::uint64_t next_seq_ = 0;
    Cycles now_ = 0;
    std::uint64_t events_run_ = 0;
};

TEST(SimulatorOracle, MatchesNaiveReferenceOnRandomPrograms)
{
    std::uint64_t events = 0;
    std::uint64_t live_cancels = 0;
    std::uint64_t dead_cancels = 0;
    std::uint64_t ticks = 0;
    for (std::uint64_t seed = 1; seed <= 250; ++seed) {
        Program real_program(seed);
        RealEngine real(real_program);
        real_program.bind(real);
        const std::vector<Record> got = real_program.drive();

        Program ref_program(seed);
        ReferenceEngine ref(ref_program);
        ref_program.bind(ref);
        const std::vector<Record> want = ref_program.drive();

        const auto [g, w] = std::mismatch(got.begin(), got.end(),
                                          want.begin(), want.end());
        ASSERT_TRUE(g == got.end() && w == want.end())
            << "seed " << seed << ": first divergence at record "
            << (g - got.begin()) << " of " << want.size();
        events += ref.eventsRun();
        live_cancels += ref.live_cancels;
        dead_cancels += ref.dead_cancels;
        ticks += ref.ticks;
    }
    // The programs really exercised what they claim to.
    EXPECT_GT(events, 250u * 100);
    EXPECT_GT(live_cancels, 100u);
    EXPECT_GT(dead_cancels, 100u);
    EXPECT_GT(ticks, 100u);
}

} // namespace
} // namespace v10
