/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace dsm;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(7, [&] { eq.scheduleIn(5, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 12u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(21, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue eq;
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunHonoursEventLimit)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(static_cast<Tick>(i), [&] { ++fired; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(1, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduling into the past");
}

// The pooled intrusive-event queue must preserve the exact (tick, FIFO
// within a tick) execution order of the original heap-of-std::function
// design. This drives a pseudo-random schedule and checks it against a
// stable-sort reference model.
TEST(EventQueuePool, MatchesReferenceOrderUnderRandomSchedule)
{
    struct Ref
    {
        Tick when;
        int id;
    };
    EventQueue eq;
    std::vector<Ref> ref;
    std::vector<int> fired;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 2000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        Tick when = (lcg >> 33) % 97;
        ref.push_back({when, i});
        eq.schedule(when, [&fired, i] { fired.push_back(i); });
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.when < b.when;
                     });
    eq.run();
    ASSERT_EQ(fired.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(fired[i], ref[i].id) << "at position " << i;
}

// Free-list reuse: events scheduled from inside callbacks reuse pooled
// storage across many waves without disturbing ordering.
TEST(EventQueuePool, ReentrantSchedulingReusesEventsSafely)
{
    EventQueue eq;
    int waves = 0;
    std::vector<int> order;
    std::function<void()> wave = [&] {
        if (++waves > 200)
            return;
        // Schedule several same-tick events plus the next wave; the
        // same-tick events must fire in FIFO order every wave.
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(1, [&order, i] { order.push_back(i); });
        eq.scheduleIn(2, [&] { wave(); });
    };
    eq.schedule(0, [&] { wave(); });
    eq.run();
    EXPECT_EQ(waves, 201);
    ASSERT_EQ(order.size(), 200u * 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(i % 8));
}

// Callbacks larger than the inline small-buffer store must fall back to
// the heap and still run correctly in order.
TEST(EventQueuePool, LargeCallbacksFallBackToHeap)
{
    EventQueue eq;
    struct Big
    {
        char payload[512];
    };
    Big big{};
    big.payload[0] = 42;
    big.payload[511] = 7;
    std::vector<int> seen;
    eq.schedule(2, [big, &seen] {
        seen.push_back(big.payload[0] + big.payload[511]);
    });
    eq.schedule(1, [big, &seen] {
        seen.push_back(big.payload[511]);
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<int>{7, 49}));
}

// Pending events that never fire (queue destroyed first) must not leak
// their callbacks; exercised under ASan/valgrind builds, and here it at
// least must not crash.
TEST(EventQueuePool, DestroysPendingCallbacks)
{
    auto guard = std::make_shared<int>(5);
    std::weak_ptr<int> watch = guard;
    {
        EventQueue eq;
        eq.schedule(1, [guard] { (void)*guard; });
        guard.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

namespace {

/**
 * Spinners plus seeded random real events. With ghosts off, each
 * spinner's re-reads are real self-rescheduling events (the reference);
 * with ghosts on, they are parked chains. Both runs must execute the
 * same real events, at the same ticks, in the same order.
 */
class SpinWorld
{
  public:
    struct Spin : EventQueue::Spinner
    {
        bool parked = false;
        bool woken = false;
        std::uint64_t iterations = 0;
        void creditElided(std::uint64_t n) override { iterations += n; }
    };

    SpinWorld(bool ghosts, Tick period, std::uint64_t seed)
        : spins(6), _ghosts(ghosts), _h(period), _rng(seed)
    {
        for (int i = 0; i < 40; ++i)
            eq.schedule(_rng.below(200), [this] { real(); });
        for (int i = 0; i < 6; ++i)
            eq.schedule(_rng.below(50), [this, i] { startSpin(i); });
    }

    /** Drive the queue like System::run: 37-event chunks to a deadline. */
    void
    drive(Tick deadline)
    {
        while (eq.now() <= deadline && !eq.empty()) {
            eq.run(37);
            eq.skipElided(37, deadline);
        }
        eq.flushElided();
    }

    EventQueue eq;
    std::vector<std::pair<Tick, int>> log;
    std::vector<Spin> spins;

  private:
    void
    startSpin(int i)
    {
        log.emplace_back(eq.now(), 1000 + i);
        issue(i);
    }

    /** One re-read: its completion is due one period from now. */
    void
    issue(int i)
    {
        spins[i].parked = true;
        if (_ghosts)
            eq.park(&spins[i], _h);
        else
            eq.scheduleIn(_h, [this, i] { complete(i); });
    }

    void
    complete(int i)
    {
        Spin &s = spins[i];
        if (!s.woken) {
            // Reference only: an unwoken re-read loops.
            ++s.iterations;
            issue(i);
            return;
        }
        s.parked = false;
        s.woken = false;
        log.emplace_back(eq.now(), 2000 + i);
        if (_rng.below(2) == 0)
            eq.scheduleIn(_rng.below(9), [this, i] { startSpin(i); });
    }

    void
    real()
    {
        log.emplace_back(eq.now(), static_cast<int>(_rng.below(1000)));
        if (++_reals > 600)
            return;
        for (std::uint64_t k = _rng.below(3); k > 0; --k)
            eq.scheduleIn(_rng.below(6), [this] { real(); });
        if (_rng.below(3) == 0) {
            auto i = static_cast<int>(_rng.below(6));
            Spin &s = spins[i];
            if (s.parked && !s.woken) {
                s.woken = true;
                if (_ghosts)
                    eq.wake(&s, [this, i] { complete(i); });
            }
        }
    }

    bool _ghosts;
    Tick _h;
    Rng _rng;
    int _reals = 0;
};

} // namespace

TEST(EventQueueGhosts, ParkedChainsKeepTheUnelidedOrder)
{
    for (Tick period : {Tick(1), Tick(2), Tick(3)}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            for (Tick deadline : {Tick(150), Tick(401), Tick(2000)}) {
                SpinWorld ref(false, period, seed);
                SpinWorld ghost(true, period, seed);
                ref.drive(deadline);
                ghost.drive(deadline);
                SCOPED_TRACE(testing::Message() << "period " << period
                                                << " seed " << seed
                                                << " deadline " << deadline);
                ASSERT_EQ(ghost.log, ref.log);
                EXPECT_EQ(ghost.eq.now(), ref.eq.now());
                EXPECT_EQ(ghost.eq.eventsExecuted(),
                          ref.eq.eventsExecuted());
                EXPECT_GT(ghost.eq.eventsElided(), 0u);
                for (std::size_t i = 0; i < ref.spins.size(); ++i)
                    EXPECT_EQ(ghost.spins[i].iterations,
                              ref.spins[i].iterations);
            }
        }
    }
}

namespace {

/**
 * A randomized mix for the keyed 4-ary heap: near events (under 8
 * ticks ahead), far ones (thousands ahead), same-tick bursts of 5-44
 * events (deeper than one heap level), events scheduling events, and
 * spinners that park and are woken. Every event scheduled through
 * sched() logs the (when, seq) key it was scheduled with when it runs;
 * seq counts schedule() calls, which is how the queue numbers them.
 * With ghosts off a spinner re-reads through real events (the
 * reference); with ghosts on it parks.
 */
class MixWorld
{
  public:
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        bool operator==(const Key &) const = default;
    };

    struct Spin : EventQueue::Spinner
    {
        bool parked = false;
        bool woken = false;
        std::uint64_t iterations = 0;
        void creditElided(std::uint64_t n) override { iterations += n; }
    };

    MixWorld(bool ghosts, std::uint64_t seed)
        : spins(4), _ghosts(ghosts), _rng(seed)
    {
        for (int i = 0; i < 200; ++i)
            spawn();
        for (int i = 0; i < 4; ++i)
            sched(_rng.below(64), [this, i] { startSpin(i); });
    }

    EventQueue eq;
    std::vector<Spin> spins;
    /** Keys handed out, and keys of the events run, in run order. */
    std::vector<Key> scheduled;
    std::vector<Key> ran;
    /** (tick, id) of every real event and woken spin completion. */
    std::vector<std::pair<Tick, int>> log;

  private:
    static constexpr Tick PERIOD = 3;

    template <typename F>
    void
    sched(Tick when, F f)
    {
        Key k{when, _seq++};
        scheduled.push_back(k);
        eq.schedule(when, [this, k, f] {
            ran.push_back(k);
            f();
        });
    }

    /** Schedule one near or far real event, or a same-tick burst. */
    void
    spawn()
    {
        std::uint64_t kind = _rng.below(20);
        if (kind < 12) {
            int id = _ids++;
            sched(eq.now() + _rng.below(8), [this, id] { real(id); });
        } else if (kind < 15) {
            int id = _ids++;
            sched(eq.now() + 1000 + _rng.below(50000),
                  [this, id] { real(id); });
        } else {
            Tick at = eq.now() + _rng.below(16);
            for (std::uint64_t n = 5 + _rng.below(40); n > 0; --n) {
                int id = _ids++;
                sched(at, [this, id] { real(id); });
            }
        }
    }

    void
    real(int id)
    {
        log.emplace_back(eq.now(), id);
        if (++_reals > 3000)
            return;
        for (std::uint64_t k = _rng.below(3); k > 0; --k)
            spawn();
        if (_rng.below(4) == 0) {
            Spin &s = spins[_rng.below(spins.size())];
            if (s.parked && !s.woken) {
                s.woken = true;
                if (_ghosts) {
                    int i = static_cast<int>(&s - spins.data());
                    eq.wake(&s, [this, i] { complete(i); });
                }
            }
        }
    }

    void
    startSpin(int i)
    {
        log.emplace_back(eq.now(), -1 - i);
        spins[i].parked = true;
        reread(i);
    }

    void
    reread(int i)
    {
        if (_ghosts)
            eq.park(&spins[i], PERIOD);
        else
            sched(eq.now() + PERIOD, [this, i] { complete(i); });
    }

    void
    complete(int i)
    {
        Spin &s = spins[i];
        if (!s.woken) {
            // Reference only: an unwoken re-read loops.
            ++s.iterations;
            reread(i);
            return;
        }
        s.parked = false;
        s.woken = false;
        log.emplace_back(eq.now(), -100 - i);
        if (_rng.below(2) == 0)
            sched(eq.now() + _rng.below(9), [this, i] { startSpin(i); });
    }

    bool _ghosts;
    Rng _rng;
    std::uint64_t _seq = 0;
    int _ids = 0;
    int _reals = 0;
};

} // namespace

// Pop order must equal a reference sort of the scheduled (when, seq)
// keys, whatever the heap's arity, and parking a spinner must not move
// any real event: the ghost run logs exactly what the unelided one does.
TEST(EventQueueHeap, RandomMixRunsInWhenSeqOrder)
{
    const Tick deadline = 20000;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        MixWorld ref(false, seed);
        MixWorld ghost(true, seed);
        ref.eq.runUntil(deadline);
        ghost.eq.runUntil(deadline);
        ghost.eq.flushElided();

        auto by_key = [](const MixWorld::Key &a, const MixWorld::Key &b) {
            return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        };
        for (const MixWorld *w : {&ref, &ghost}) {
            std::vector<MixWorld::Key> want;
            for (const MixWorld::Key &k : w->scheduled)
                if (k.when <= deadline)
                    want.push_back(k);
            std::sort(want.begin(), want.end(), by_key);
            ASSERT_EQ(w->ran, want);
        }
        // Bursts deeper than one heap level and far events both ran.
        EXPECT_GT(ref.ran.size(), 2000u);
        EXPECT_LT(ref.ran.size(), ref.scheduled.size());

        ASSERT_EQ(ghost.log, ref.log);
        EXPECT_EQ(ghost.eq.now(), ref.eq.now());
        EXPECT_EQ(ghost.eq.eventsExecuted(), ref.eq.eventsExecuted());
        EXPECT_GT(ghost.eq.eventsElided(), 0u);
        for (std::size_t i = 0; i < ref.spins.size(); ++i)
            EXPECT_EQ(ghost.spins[i].iterations, ref.spins[i].iterations);
    }
}
