/**
 * @file
 * Discrete-event queue ordered by (cycle, insertion sequence).
 *
 * Ties at the same cycle fire in insertion order, which makes the
 * simulator deterministic: the scheduler's dispatch decisions at a
 * cycle never depend on queue internals.
 *
 * Internally this is one binary min-heap of 24-byte {when, seq, id}
 * keys: one simulated core holds very few pending events (at most
 * five were measured in the report, run, advise and serve commands),
 * and a plain heap serves that as fast as any bucketed structure.
 * Each closure lives in its id slot, so sifts never move closures.
 *
 * Cancellation uses a generation-tagged slot table: an EventId packs
 * (slot index + 1, generation), slots are recycled through a free
 * list, and stale handles are harmless because the generation no
 * longer matches. The slot table, and with it every stored closure,
 * is therefore bounded by the peak number of live events, not by the
 * total ever scheduled. A cancelled event's closure is destroyed at
 * once; only its key stays in the heap until it reaches the top.
 */

#ifndef V10_SIM_EVENT_QUEUE_H
#define V10_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/small_fn.h"
#include "common/types.h"

namespace v10 {

/** Opaque handle used to cancel a pending event. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
inline constexpr EventId kNoEvent = 0;

/** Binary min-heap of (cycle, seq) ordered, cancellable events. */
class V10_DOMAIN_LOCAL EventQueue
{
  public:
    /** Allocation-free (for small closures) event callback. */
    using EventFn = SmallFn<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to fire at absolute cycle @p when, ordered by
     * the queue's own insertion counter.
     * @return a handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Cycles when, F &&cb)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
            return scheduleFn(when, std::forward<F>(cb));
        else
            return scheduleFn(when,
                              EventFn(std::forward<F>(cb), arena_));
    }

    /**
     * Cancel a pending event and destroy its closure. Cancelling an
     * already-fired or unknown id is a harmless no-op.
     */
    void cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return live_; }

    /** Cycle of the earliest live event; kCycleMax when empty. */
    Cycles
    nextCycle() const
    {
        return heap_.empty() ? kCycleMax : heap_.front().when;
    }

    /**
     * Pop the earliest live event into @p fn WITHOUT running it, so
     * the callback may freely schedule into or clear the queue.
     * @return the event's cycle, or kCycleMax when empty (then @p fn
     *         is untouched).
     */
    Cycles takeNext(EventFn &fn);

    /** Drop all pending events. */
    void clear();

    /**
     * Event-id slots ever allocated — bounded by the peak live event
     * count, not the total scheduled (memory regression probe).
     */
    std::size_t slotCount() const { return slots_.size(); }

    /** Free-list pool backing oversized event closures. */
    SmallFnArena &arena() { return arena_; }

  private:
    /** Heap entry; the closure stays in the id's slot. */
    struct Key
    {
        Cycles when;
        std::uint64_t seq;
        EventId id;
    };

    /** One recycled EventId slot and the closure of its event. */
    struct Slot
    {
        EventFn fn;
        std::uint32_t gen = 0;
        bool armed = false;
    };

    /** Min-heap ordering on (when, seq). */
    static bool later(const Key &a, const Key &b);

    static std::size_t
    slotIndex(EventId id)
    {
        return static_cast<std::size_t>((id >> 32) - 1);
    }

    EventId scheduleFn(Cycles when, EventFn fn);
    void releaseSlot(EventId id);
    bool isLive(EventId id) const;

    /** Pop cancelled keys off the top, so the top is always live. */
    void purgeTop();

    // Destruction order matters: the arena must outlive every stored
    // EventFn, so it is declared first (destroyed last).
    SmallFnArena arena_;

    /** Min-heap on (when, seq); its top is live or it is empty. */
    std::vector<Key> heap_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;

    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
};

} // namespace v10

#endif // V10_SIM_EVENT_QUEUE_H
