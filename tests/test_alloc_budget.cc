/**
 * @file
 * Allocation budget of the per-message host path.
 *
 * The outcome records (tf::Outcome), the operation completion path
 * (Proc::complete) and the event pool allocate nothing per message once
 * warm. This binary replaces the global operator new to count calls and
 * runs the Figure 3 lock-free counter at c=64 over the application
 * matrix: the whole run may make at most 0.1 calls per mesh message. A
 * std::vector or std::function put back on that path shows up here as
 * an exact count, not as noise in a timing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cpu/system.hh"
#include "exp/experiment.hh"
#include "workloads/counter_apps.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t n) noexcept
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n != 0 ? n : 1);
}

/**
 * Out of line, so the compiler never sees a free() of memory it knows
 * came from operator new (both sides are replaced here).
 */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

// Every unaligned form goes through malloc/free, so memory from any one
// of them may be released by any other (the aligned forms stay with the
// runtime's own pair).
void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

using namespace dsm;

TEST(AllocBudget, CounterStormMessagePathAllocatesAlmostNothing)
{
    std::uint64_t news = 0;
    std::uint64_t messages = 0;
    for (const ImplCase &impl : applicationMatrix()) {
        Config cfg;
        cfg.sync = impl.sync;
        System sys(cfg);
        CounterAppConfig cc;
        cc.kind = CounterKind::LOCK_FREE;
        cc.prim = impl.prim;
        cc.contention = 64;
        cc.phases = 16;
        std::uint64_t before = g_news.load(std::memory_order_relaxed);
        CounterAppResult r = runCounterApp(sys, cc);
        std::uint64_t made = g_news.load(std::memory_order_relaxed) - before;
        ASSERT_TRUE(r.completed) << impl.label;
        ASSERT_TRUE(r.correct) << impl.label;
        std::uint64_t msgs = sys.mesh().stats().messages;
        std::printf("%-10s %9llu operator new for %9llu messages\n",
                    impl.label.c_str(), (unsigned long long)made,
                    (unsigned long long)msgs);
        news += made;
        messages += msgs;
    }
    ASSERT_GT(messages, 0u);
    double per_msg = static_cast<double>(news) /
                     static_cast<double>(messages);
    std::printf("total %llu operator new for %llu messages: %.4f per "
                "message\n",
                (unsigned long long)news, (unsigned long long)messages,
                per_msg);
    EXPECT_LE(per_msg, 0.1);
}
