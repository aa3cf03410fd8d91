#include "sim/event_queue.h"

#include <algorithm>

#include "common/log.h"

namespace v10 {

bool
EventQueue::later(const Key &a, const Key &b)
{
    // std::push_heap builds a max-heap; invert for min-heap order.
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
}

EventId
EventQueue::scheduleFn(Cycles when, EventFn fn)
{
    std::uint32_t idx;
    if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        // The slot index (plus one) fills the EventId's high 32
        // bits. A run would exhaust memory long before holding
        // billions of live events; the guard turns a silent id
        // wrap into a diagnosable panic.
        if (idx == ~std::uint32_t{0} - 1)
            V10_PANIC("EventQueue: live-event slot table overflow");
        slots_.emplace_back();
    }
    Slot &slot = slots_[idx];
    slot.fn = std::move(fn);
    slot.armed = true;
    const EventId id = ((static_cast<EventId>(idx) + 1) << 32) | slot.gen;
    heap_.push_back(Key{when, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_;
    return id;
}

void
EventQueue::releaseSlot(EventId id)
{
    const std::size_t idx = slotIndex(id);
    Slot &slot = slots_[idx];
    slot.fn = nullptr; // a cancelled closure's captures go at once
    slot.armed = false;
    ++slot.gen; // stale handles to this slot stop matching
    free_slots_.push_back(static_cast<std::uint32_t>(idx));
}

bool
EventQueue::isLive(EventId id) const
{
    const std::size_t idx = slotIndex(id);
    if (idx >= slots_.size())
        return false; // includes kNoEvent, whose index wraps around
    const Slot &slot = slots_[idx];
    return slot.armed && slot.gen == static_cast<std::uint32_t>(id);
}

void
EventQueue::purgeTop()
{
    while (!heap_.empty() && !isLive(heap_.front().id)) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    }
}

void
EventQueue::cancel(EventId id)
{
    if (!isLive(id))
        return;
    releaseSlot(id);
    if (live_ == 0)
        V10_PANIC("EventQueue::cancel: live count underflow");
    --live_;
    purgeTop();
}

Cycles
EventQueue::takeNext(EventFn &fn)
{
    if (heap_.empty())
        return kCycleMax;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Key key = heap_.back();
    heap_.pop_back();
    fn = std::move(slots_[slotIndex(key.id)].fn);
    releaseSlot(key.id); // fired: stale cancels are no-ops
    --live_;
    purgeTop();
    return key.when;
}

void
EventQueue::clear()
{
    // Release every live slot (bumping its generation and dropping
    // its closure) so stale handles stay harmless.
    for (const Key &key : heap_) {
        if (isLive(key.id))
            releaseSlot(key.id);
    }
    heap_.clear();
    live_ = 0;
}

} // namespace v10
