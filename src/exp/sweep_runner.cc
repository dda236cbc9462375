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
    if (env != nullptr && env[0] != '\0') {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end == nullptr || *end != '\0' || v < 1)
            dsm_fatal("DSM_JOBS must be a positive integer, got '%s'",
                      env);
        return static_cast<int>(v);
    }
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
    std::size_t n = points.size();
    std::size_t workers =
        std::min(static_cast<std::size_t>(_jobs), n);

    if (workers <= 1) {
        // Reference serial path: no threads, declaration order.
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = executePoint(points[i]);
            if (on_done)
                on_done(i);
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex done_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                PointResult r = executePoint(points[i]);
                std::lock_guard<std::mutex> lock(done_mutex);
                results[i] = std::move(r);
                if (on_done)
                    on_done(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

int
parseJobsFlag(int argc, char **argv)
{
    auto parse = [](const char *s) {
        char *end = nullptr;
        long v = std::strtol(s, &end, 10);
        if (end == nullptr || *end != '\0' || v < 1)
            dsm_fatal("--jobs expects a positive integer, got '%s'", s);
        return static_cast<int>(v);
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--jobs=", 7) == 0)
            return parse(a + 7);
        if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
            if (i + 1 >= argc)
                dsm_fatal("%s requires a value", a);
            return parse(argv[i + 1]);
        }
    }
    return 0;
}

std::uint64_t
parseSeedFlag(int argc, char **argv)
{
    auto parse = [](const char *s) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(s, &end, 10);
        if (end == s || *end != '\0' || v == 0)
            dsm_fatal("--seed expects a positive integer, got '%s'", s);
        return static_cast<std::uint64_t>(v);
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--seed=", 7) == 0)
            return parse(a + 7);
        if (std::strcmp(a, "--seed") == 0) {
            if (i + 1 >= argc)
                dsm_fatal("--seed requires a value");
            return parse(argv[i + 1]);
        }
    }
    return 0;
}

int
parseSeedsFlag(int argc, char **argv, int fallback)
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const char *v = nullptr;
        if (std::strncmp(a, "--seeds=", 8) == 0)
            v = a + 8;
        else if (std::strcmp(a, "--seeds") == 0 && i + 1 < argc)
            v = argv[i + 1];
        if (v != nullptr) {
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1)
                dsm_fatal("--seeds expects a positive integer, got "
                          "'%s'", v);
            return static_cast<int>(n);
        }
    }
    return fallback;
}

std::uint64_t
seedFromEnv()
{
    const char *s = std::getenv("DSM_SEED");
    if (s == nullptr || *s == '\0')
        return 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || v == 0)
        dsm_fatal("DSM_SEED must be a positive integer, got '%s'", s);
    return static_cast<std::uint64_t>(v);
}

} // namespace dsm
