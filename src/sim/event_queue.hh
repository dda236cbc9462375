/**
 * @file
 * Deterministic discrete-event queue driving the cycle-level simulation.
 *
 * Events scheduled for the same tick fire in FIFO order of scheduling
 * (a monotonically increasing sequence number breaks ties), which makes
 * every simulation run bit-for-bit reproducible.
 *
 * The pending set is a 4-ary min-heap of (when, seq, event) entries
 * over pooled events: the order key sits in the entry, so a sift
 * compares keys without touching an event, and each event embeds a
 * small type-erased callback buffer, so the hot schedule/fire path
 * performs no per-event heap allocation once the pool is warm
 * (callbacks larger than the inline buffer fall back to one heap
 * allocation). Fired events return to a free list for reuse. The
 * (when, seq) key is unique, so the pop order does not depend on the
 * heap's arity.
 *
 * Spin elision: a processor re-reading an unchanged cached word can
 * park as a *ghost chain* — the periodic completion events it would
 * have run, kept as one (tick, order key) position instead of heap
 * entries. Chains that reach the same position move on together as
 * one cohort, so advancing every parked chain past a real event costs
 * O(cohorts), not O(elided events). Ghost events keep their exact
 * place in the (tick, seq) order and count in eventsExecuted(); their
 * statistics are credited to the Spinner lazily (flushElided(), window
 * boundaries, wake()); wake() turns a chain's pending completion back
 * into a real event. See DESIGN.md, "Spin elision".
 */

#ifndef DSM_SIM_EVENT_QUEUE_HH
#define DSM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace dsm {

/**
 * The global simulated clock and pending-event set.
 *
 * All model components share one EventQueue owned by the System. Time
 * advances only inside run()/runUntil()/step(), never backwards.
 */
class EventQueue
{
  public:
    /** Generic callback type; any callable may be scheduled directly. */
    using Callback = std::function<void()>;

    /** Owner of a parked ghost chain (a processor spinning in place). */
    class Spinner
    {
      public:
        /**
         * Account for @p n elided iterations (each a completion plus
         * the re-issue of the same cache-hit load), exactly as the
         * events would have recorded them.
         */
        virtual void creditElided(std::uint64_t n) = 0;

      protected:
        ~Spinner() = default;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time in cycles. */
    Tick now() const { return _now; }

    /**
     * Number of events executed since construction, elided spin
     * iterations included: the count the unelided model would run.
     */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** The part of eventsExecuted() that ran as elided ghost events. */
    std::uint64_t eventsElided() const { return _elided; }

    /** True if no events remain pending (parked chains count). */
    bool empty() const { return _heap.empty() && _cohorts.empty(); }

    /** Number of pending events (one per parked chain included). */
    std::size_t pending() const { return _heap.size() + _parked; }

    /**
     * Schedule a callable at an absolute tick.
     * @param when Absolute tick; must not be in the past.
     * @param f The action to run when the clock reaches @p when.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        dsm_assert(when >= _now,
                   "scheduling into the past: %llu < %llu",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(_now));
        push(when, (_next_seq++ << RANK_BITS) | REAL_RANK,
             std::forward<F>(f));
    }

    /** Schedule a callable @p delay cycles from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(_now + delay, std::forward<F>(f));
    }

    /**
     * Attach a periodic sampling hook (time-resolved telemetry). The
     * callback fires once per window boundary — ticks period, 2*period,
     * ... — immediately before the first event at or after each
     * boundary executes, so a sample at boundary T observes exactly the
     * events of [0, T). Boundaries with no events in between are still
     * delivered (in order) before the next event runs; sampling never
     * schedules events, so it cannot keep the queue alive. With no
     * sampler attached the hot path pays a single branch per event.
     */
    using SamplerFn = std::function<void(Tick)>;
    void
    setSampler(Tick period, SamplerFn fn)
    {
        dsm_assert(period > 0, "sampler period must be nonzero");
        _sample_period = period;
        _next_sample = _now + period;
        _sampler = std::move(fn);
    }

    /** Deliver any window boundaries up to and including @p when. */
    void
    sampleUpTo(Tick when)
    {
        while (_next_sample <= when) {
            if (!_cohorts.empty())
                flushElided();
            _sampler(_next_sample);
            _next_sample += _sample_period;
        }
    }

    /**
     * Park @p owner: the completion just issued — due @p period cycles
     * from now, re-issued every @p period cycles after that — becomes
     * a ghost chain instead of a scheduled event. Every chain shares
     * one period. Call from inside a running event, in place of the
     * scheduleIn(period, ...) the completion would have made.
     */
    void park(Spinner *owner, Tick period);

    /**
     * Unpark @p owner: its pending completion becomes the real event
     * @p f at the exact (tick, order) position the chain holds. Call
     * from inside a running event; the chain has been advanced up to
     * that event and is credited first, so the caller sees exact
     * counters.
     */
    template <typename F>
    void
    wake(Spinner *owner, F &&f)
    {
        Tick when;
        std::uint64_t key;
        unpark(owner, when, key);
        push(when, key, std::forward<F>(f));
    }

    /**
     * Credit @p owner's elided events so far (those before the running
     * event): its statistics become exact without waking it.
     */
    void flushElided(Spinner *owner);

    /**
     * Credit every parked chain's elided events so far. Window
     * boundaries flush on their own; callers reading statistics after
     * driving the queue directly flush first (System::run does).
     */
    void flushElided();

    /**
     * Execute, in bulk, every whole run of @p chunk consecutive elided
     * events at ticks <= @p deadline that precede the next real event
     * — a run(chunk) loop that checks task state between chunks can
     * skip chunks in which no real event (and so no task) runs.
     * @return the number of events executed.
     */
    std::uint64_t skipElided(std::uint64_t chunk, Tick deadline);

    /**
     * Execute the single next event, advancing the clock to it. Here
     * and in run()/runUntil(), an elided spin iteration counts as one
     * event, exactly as it would without elision.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or @p limit events have executed.
     * @return the number of events executed by this call.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Run until the clock would pass @p when (events at @p when still
     * execute), the queue drains, or @p limit events have executed.
     * The clock is advanced to at least @p when on return.
     * @return the number of events executed by this call.
     */
    std::uint64_t runUntil(Tick when, std::uint64_t limit = UINT64_MAX);

  private:
    /**
     * The order key of an event is (seq << RANK_BITS) | rank. Real
     * events take rank REAL_RANK; a ghost chain or woken completion
     * sits "just before" the real seq it would have consumed, with a
     * rank that orders chains sharing that position.
     */
    static constexpr unsigned RANK_BITS = 20;
    static constexpr std::uint64_t REAL_RANK = (1ULL << RANK_BITS) - 1;

    /**
     * Inline callback storage. Sized so the protocol's hottest closures
     * (a captured Msg plus a few pointers) avoid the heap fallback.
     */
    static constexpr std::size_t INLINE_BYTES = 192;
    /** Events per pool chunk. */
    static constexpr std::size_t CHUNK_EVENTS = 256;

    struct Event
    {
        /** Run then destroy the stored callback. */
        void (*invoke)(Event *);
        /** Destroy the stored callback without running it. */
        void (*destroy)(Event *);
        /** Free-list link; meaningful only while the event is free. */
        Event *next_free;
        alignas(std::max_align_t) unsigned char store[INLINE_BYTES];
    };

    template <typename F>
    static void
    bindCallback(Event *e, F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= INLINE_BYTES &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (static_cast<void *>(e->store)) Fn(std::forward<F>(f));
            e->invoke = [](Event *ev) {
                Fn *fn = std::launder(
                    reinterpret_cast<Fn *>(ev->store));
                (*fn)();
                fn->~Fn();
            };
            e->destroy = [](Event *ev) {
                std::launder(reinterpret_cast<Fn *>(ev->store))->~Fn();
            };
        } else {
            // Oversized callback: one owned heap allocation.
            new (static_cast<void *>(e->store))
                Fn *(new Fn(std::forward<F>(f)));
            e->invoke = [](Event *ev) {
                Fn *fn = *std::launder(
                    reinterpret_cast<Fn **>(ev->store));
                (*fn)();
                delete fn;
            };
            e->destroy = [](Event *ev) {
                delete *std::launder(
                    reinterpret_cast<Fn **>(ev->store));
            };
        }
    }

    /** A pending event with its order key, as the heap holds it. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    /** Children per heap node. */
    static constexpr std::size_t ARITY = 4;

    /** True if entry @p a fires after entry @p b. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    template <typename F>
    void
    push(Tick when, std::uint64_t key, F &&f)
    {
        Event *e = allocate();
        bindCallback(e, std::forward<F>(f));
        _heap.push_back(Entry{when, key, e});
        siftUp(_heap.size() - 1);
    }

    Event *allocate();
    void release(Event *e);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Execute the next real event (its ghosts already advanced). */
    void runTop();

    /**
     * Execute modelled events — real and elided — until @p limit have
     * run or the next one lies past tick @p bound.
     */
    std::uint64_t advance(std::uint64_t limit, Tick bound);

    /** @name Ghost chains (spin elision). @{ */
    /** One parked chain. */
    struct Member
    {
        Spinner *owner;
        /** Tick of its pending completion when last credited. */
        Tick g0;
    };

    /**
     * Chains at one position: member i's next elided completion fires
     * at tick g with order key `key + i`.
     */
    struct Cohort
    {
        Tick g = 0;
        std::uint64_t key = 0;
        std::vector<Member> members;
        /** Scratch for advanceGhosts(): the position before a step. */
        Tick old_g = 0;
        std::uint64_t old_key = 0;
    };

    static bool
    before(Tick g, std::uint64_t key, Tick t, std::uint64_t k)
    {
        return g < t || (g == t && key < k);
    }

    /** Where the next real event sits; (NEVER, 0) with none. */
    void realTop(Tick &t, std::uint64_t &key) const;
    /** Ghost events before position (t, key), over all chains. */
    std::uint64_t elidedBefore(Tick t, std::uint64_t key) const;
    /** Tick of the last ghost event before (t, key); needs one. */
    Tick lastElidedBefore(Tick t, std::uint64_t key) const;
    /** @p n consecutive order keys just before real seq _next_seq. */
    std::uint64_t ghostKeys(std::size_t n);
    /** Execute every ghost event before (t, key), boundaries included. */
    void stepGhosts(Tick t, std::uint64_t key);
    /** stepGhosts() without window boundaries. */
    void advanceGhosts(Tick t, std::uint64_t key);
    /**
     * Execute exactly the first @p k ghost events; they all lie before
     * the real event at tick @p t, or before tick @p t + 1 with none.
     */
    void elide(std::uint64_t k, Tick t);
    /** Credit member @p m of a cohort at tick @p g. */
    void credit(Member &m, Tick g);
    /** Remove @p owner's chain, credited; report its position. */
    void unpark(const Spinner *owner, Tick &when, std::uint64_t &key);
    /** Restore (g, key) order, then merge adjacent cohorts at one tick
     *  whose keys are contiguous. */
    void sortCohorts();
    /** @} */

    /** 4-ary min-heap of pending events ordered by (when, seq). */
    std::vector<Entry> _heap;
    /** Pool chunks; event addresses are stable for their lifetime. */
    std::vector<std::unique_ptr<Event[]>> _chunks;
    /** Recycled events ready for reuse. */
    Event *_free = nullptr;
    /** Events handed out of the newest chunk so far. */
    std::size_t _chunk_used = CHUNK_EVENTS;

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _elided = 0;

    /** Parked chains, sorted by (g, key). */
    std::vector<Cohort> _cohorts;
    /** Number of parked chains. */
    std::size_t _parked = 0;
    /** The period every parked chain shares. */
    Tick _ghost_period = 0;
    /** The _next_seq the rank counter belongs to, and its next rank. */
    std::uint64_t _rank_seq = 0;
    std::uint64_t _rank_next = 0;

    /** @name Telemetry sampling hook (0 = no sampler attached). @{ */
    Tick _sample_period = 0;
    Tick _next_sample = 0;
    SamplerFn _sampler;
    /** @} */
};

} // namespace dsm

#endif // DSM_SIM_EVENT_QUEUE_HH
