#include "exp/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

PointResult
executePoint(const Point &p)
{
    System sys(p.cfg);
    PointResult r = p.fn(sys);
    r.events_modelled = sys.eq().eventsExecuted();
    r.events_elided = sys.eq().eventsElided();
    return r;
}

/** @p s as a positive T, read exactly; dsm_fatal naming @p what. */
template <typename T>
T
positiveOrFatal(const char *what, const char *s)
{
    T v{};
    if (!parseInteger(s, v) || v < 1)
        dsm_fatal("%s must be a positive integer, got '%s'", what, s);
    return v;
}

/**
 * The value of "@p name V", "@p name=V" or "@p alias V" on a command
 * line, or nullptr when the flag is absent. A flag with no value
 * after it is fatal.
 */
const char *
flagValue(int argc, char **argv, const char *name,
          const char *alias = nullptr)
{
    std::size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, name, len) == 0 && a[len] == '=')
            return a + len + 1;
        if (std::strcmp(a, name) == 0 ||
            (alias != nullptr && std::strcmp(a, alias) == 0)) {
            if (i + 1 >= argc)
                dsm_fatal("%s requires a value", a);
            return argv[i + 1];
        }
    }
    return nullptr;
}

} // anonymous namespace

SweepRunner::SweepRunner(int jobs) : _jobs(resolveJobs(jobs))
{
}

int
SweepRunner::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    const char *env = std::getenv("DSM_JOBS");
    if (env != nullptr && env[0] != '\0')
        return positiveOrFatal<int>("DSM_JOBS", env);
    return 1;
}

std::vector<PointResult>
SweepRunner::run(const std::vector<Point> &points,
                 const std::function<void(std::size_t)> &on_done)
{
    std::vector<PointResult> results;
    runInto(points, results, on_done);
    return results;
}

void
SweepRunner::runInto(const std::vector<Point> &points,
                     std::vector<PointResult> &results,
                     const std::function<void(std::size_t)> &on_done)
{
    results.clear();
    results.resize(points.size());
    std::mutex done_mutex;
    forEachIndex(_jobs, points.size(), [&](std::size_t i) {
        PointResult r = executePoint(points[i]);
        std::lock_guard<std::mutex> lock(done_mutex);
        results[i] = std::move(r);
        if (on_done)
            on_done(i);
    });
}

void
forEachIndex(int jobs, std::size_t n,
             const std::function<void(std::size_t)> &fn)
{
    std::size_t workers = std::min(static_cast<std::size_t>(jobs), n);
    if (workers <= 1) {
        // Reference serial path: no threads, declaration order.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

int
parseJobsFlag(int argc, char **argv)
{
    const char *v = flagValue(argc, argv, "--jobs", "-j");
    return v != nullptr ? positiveOrFatal<int>("--jobs", v) : 0;
}

std::uint64_t
parseSeedFlag(int argc, char **argv)
{
    const char *v = flagValue(argc, argv, "--seed");
    return v != nullptr ? positiveOrFatal<std::uint64_t>("--seed", v) : 0;
}

int
parseSeedsFlag(int argc, char **argv, int fallback)
{
    const char *v = flagValue(argc, argv, "--seeds");
    return v != nullptr ? positiveOrFatal<int>("--seeds", v) : fallback;
}

std::uint64_t
seedFromEnv()
{
    const char *s = std::getenv("DSM_SEED");
    if (s == nullptr || *s == '\0')
        return 0;
    return positiveOrFatal<std::uint64_t>("DSM_SEED", s);
}

} // namespace dsm
