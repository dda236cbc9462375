/**
 * @file
 * Benchmark driver: runs one workload for a time budget and prints one
 * JSON document (the last line of stdout) with every point's digest,
 * the check results and the measured metrics. perfbench/run.py builds
 * this binary, compares the digests with the recorded ones and prints
 * the benchmark's result line.
 *
 *   perfbench_driver --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--spans PATH]
 *                    [--mem-service-time CYCLES]
 *
 * --trace 0 measures the end-to-end metrics with tracing off.
 * --trace 1 runs the layer probes, then alternates untraced and traced
 * passes (transaction tracer on, simulated windows sampled through
 * EventQueue::setSampler) and reports the per-layer metrics; --spans
 * names the file the last traced pass's spans are written to.
 * --seconds 0 runs the fewest passes: one untraced, or four traced.
 * --mem-service-time changes one MachineConfig latency; the self-test
 * uses it to show that the fidelity check catches the change.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>

#include "bench.hh"
#include "sim/json.hh"
#include "spans.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
    /** Override of MachineConfig::mem_service_time (0: keep). */
    Tick mem_service_time = 0;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v != "0";
        else if (a == "--spans")
            o.spans = v;
        else if (a == "--mem-service-time")
            o.mem_service_time = std::strtoull(v.c_str(), nullptr, 10);
        else
            usage(("unknown option " + a).c_str());
    }
    return o;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / double(v.size());
}

/** Nearest-rank percentile of @p v (0 < q <= 1). */
double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(q * double(v.size()) + 0.999999);
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/**
 * Peak resident memory of this process in MB. VmHWM, unlike
 * getrusage's ru_maxrss, restarts at exec, so it excludes the parent
 * process that launched the driver.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb * 1024.0 / 1e6;
}

/**
 * Host time of a fixed, simulator-independent calibration kernel: a
 * 64-entry binary heap, a pointer chase through 1 MB, hash-map inserts
 * and lookups, and std::function calls. The simulator's passes and this
 * kernel slow down together when the host is contended, so dividing by
 * it removes much of the host's speed changes (see README.md). Its
 * memory stays small so that it does not set the run's peak RSS.
 */
/** Keeps calibrate()'s result observable so its work is not elided. */
volatile std::uint64_t calibrate_sink;

/** calibrate()'s time on the reference host (see README.md). */
constexpr double CAL_REF_S = 0.033;

double
calibrate()
{
    double t0 = hostNow();
    std::uint64_t x = 88172645463325252ULL, acc = 0;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < 64; ++i)
        heap.push(next() % 1000);
    for (int i = 0; i < 400000; ++i) {
        std::uint64_t t = heap.top();
        heap.pop();
        heap.push(t + 1 + next() % 64);
        acc += t;
    }
    std::vector<std::uint32_t> chase(1u << 18);
    for (std::uint32_t &c : chase)
        c = static_cast<std::uint32_t>(next() % chase.size());
    for (std::uint32_t i = 0, p = 0; i < 400000; ++i) {
        p = chase[p];
        acc += p;
    }
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (int i = 0; i < 30000; ++i)
        map[next() % 60000] += i;
    for (int i = 0; i < 100000; ++i) {
        auto it = map.find(next() % 60000);
        if (it != map.end())
            acc += it->second;
    }
    std::vector<std::function<void()>> fns;
    for (int i = 0; i < 1000; ++i)
        fns.emplace_back([&acc, i] { acc += i; });
    for (int r = 0; r < 300; ++r)
        for (const auto &f : fns)
            f();
    calibrate_sink = acc;
    return hostNow() - t0;
}

bool
sameCounts(const LayerCounts &a, const LayerCounts &b)
{
    return std::memcmp(&a, &b, sizeof(LayerCounts)) == 0;
}

Digest
withoutStats(Digest d)
{
    std::erase_if(d, [](const auto &kv) { return kv.first == "stats"; });
    return d;
}

/** One pass over every point of the workload. */
struct Pass
{
    bool traced = false;
    double wall = 0;
    double cal = 0; ///< calibrate() just before the pass
    PointTimes times; ///< summed over points
    LayerCounts counts;
    std::vector<PointRun> runs;
};

class Bench
{
  public:
    Bench(const Options &o, std::vector<Point> points)
        : _opt(o), _points(std::move(points)), _executions(_points.size()),
          _failures(_points.size()), _problems(_points.size())
    {
    }

    /** Run one pass, checking each point against the first pass. */
    void
    pass(bool traced)
    {
        std::unique_ptr<SpanLog> log;
        std::uint64_t root = 0, pass_span = 0;
        if (traced) {
            log = std::make_unique<SpanLog>();
            root = log->open(_opt.workload, "workload", 0);
            pass_span = log->open("pass", "pass", root);
        }
        Pass ps;
        ps.traced = traced;
        ps.cal = calibrate();
        double t0 = hostNow();
        for (std::size_t i = 0; i < _points.size(); ++i) {
            PointRun r = runPoint(_points[i], log.get(), pass_span);
            check(i, r, traced);
            ps.times.setup += r.times.setup;
            ps.times.run += r.times.run;
            ps.times.explore += r.times.explore;
            ps.times.harvest += r.times.harvest;
            ps.counts.add(r.counts);
            ps.runs.push_back(std::move(r));
        }
        ps.wall = hostNow() - t0;
        if (traced) {
            log->close(pass_span);
            log->close(root);
            _spans = std::move(log);
        }
        _passes.push_back(std::move(ps));
    }

    /** Passes to leave out of the timings (the warm-up pass). */
    std::size_t
    warmup(bool traced) const
    {
        std::size_t n = 0;
        for (const Pass &p : _passes)
            n += p.traced == traced;
        return n >= 3 ? 1 : 0;
    }

    /** Timing samples of one kind of pass, warm-up excluded. */
    template <typename F>
    std::vector<double>
    samples(bool traced, F &&f) const
    {
        std::vector<double> v;
        std::size_t skip = warmup(traced);
        for (const Pass &p : _passes) {
            if (p.traced != traced)
                continue;
            if (skip > 0) {
                --skip;
                continue;
            }
            v.push_back(f(p));
        }
        return v;
    }

    void
    writeJson(JsonWriter &w, const ProbeResults *probes) const
    {
        std::uint64_t attempted = 0, failed = 0;
        for (std::size_t i = 0; i < _points.size(); ++i) {
            attempted += _executions[i];
            failed += _failures[i];
        }
        if (probes != nullptr) {
            ++attempted;
            failed += probes->problem.empty() ? 0 : 1;
        }
        w.beginObject();
        w.kv("workload", _opt.workload);
        w.kv("seed", _opt.seed);
        w.kv("trace", _opt.trace);
        w.kv("passes", std::uint64_t(_passes.size()));
        w.kv("host_speed", speed());
        w.key("untraced_pass_wall_s");
        w.beginArray();
        for (const Pass &p : _passes)
            if (!p.traced)
                w.value(p.wall);
        w.endArray();
        w.kv("attempted", attempted);
        w.kv("failed", failed);
        if (probes != nullptr && !probes->problem.empty())
            w.kv("probe_problem", probes->problem);
        w.key("points");
        w.beginArray();
        for (std::size_t i = 0; i < _points.size(); ++i) {
            w.beginObject();
            w.kv("label", _points[i].label);
            w.key("digest");
            w.beginObject();
            for (const auto &[k, v] : _passes.front().runs[i].digest)
                w.kv(k, v);
            w.endObject();
            w.kv("executions", _executions[i]);
            w.kv("failed", _failures[i]);
            if (!_problems[i].empty())
                w.kv("problem", _problems[i]);
            w.endObject();
        }
        w.endArray();
        w.key("metrics");
        w.beginObject();
        if (probes == nullptr)
            endToEnd(w);
        else
            perLayer(w, *probes);
        w.endObject();
        w.key("slowest");
        slowest(w);
        w.endObject();
    }

    /** The traced spans, with the slowest point/window footer. */
    void
    writeSpans(const std::string &path) const
    {
        if (_spans == nullptr)
            return;
        JsonWriter f;
        slowest(f);
        if (!_spans->write(path, f.str()))
            std::fprintf(stderr, "perfbench_driver: could not write %s\n",
                         path.c_str());
    }

  private:
    void
    check(std::size_t i, const PointRun &r, bool traced)
    {
        ++_executions[i];
        std::string problem = r.problem;
        if (problem.empty() && !_passes.empty()) {
            const PointRun &ref = _passes.front().runs[i];
            if (traced) {
                if (withoutStats(r.digest) != withoutStats(ref.digest))
                    problem = "tracing changed the simulated result";
            } else if (r.digest != ref.digest) {
                problem = "simulated result differs between passes";
            } else if (!sameCounts(r.counts, ref.counts)) {
                problem = "layer counts differ between passes";
            }
        }
        if (!problem.empty()) {
            ++_failures[i];
            if (_problems[i].empty())
                _problems[i] = problem;
        }
    }

    /**
     * Host-speed factor of the timing passes: CAL_REF_S over the mean
     * calibrate() time, so 1 on a host as fast as the reference one.
     */
    double
    speed() const
    {
        return CAL_REF_S /
               mean(samples(false, [](const Pass &p) { return p.cal; }));
    }

    /**
     * Mean host time of an untraced pass, unadjusted. The mean, not the
     * median: host contention makes pass times bimodal, and a median
     * jumps between the modes.
     */
    double
    rawWall() const
    {
        return mean(samples(false, [](const Pass &p) { return p.wall; }));
    }

    /** Median host time of an untraced pass's setup, unadjusted. */
    double
    rawSetup() const
    {
        return median(
            samples(false, [](const Pass &p) { return p.times.setup; }));
    }

    void
    endToEnd(JsonWriter &w) const
    {
        w.kv("wall_s", rawWall() * speed());
        w.kv("setup_s", rawSetup() * speed());
        w.kv("peak_rss_mb", peakRssMb());
    }

    void
    perLayer(JsonWriter &w, const ProbeResults &probe) const
    {
        const LayerCounts &c = _passes.front().counts;
        double n = double(_points.size());
        // Simulator run time; the explorer's share is reported apart.
        double run_s = median(samples(false, [](const Pass &p) {
            return p.times.run - p.times.explore;
        }));
        double explore_s = median(
            samples(false, [](const Pass &p) { return p.times.explore; }));
        double wall = median(
            samples(false, [](const Pass &p) { return p.wall; }));
        double traced_wall = median(
            samples(true, [](const Pass &p) { return p.wall; }));
        auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
        double run_ns = run_s * 1e9;
        double hit_share = ratio(double(c.hits) * probe.hit_ns, run_ns);
        double miss_share =
            ratio(double(c.ops - c.hits) * probe.miss_ns, run_ns);

        w.kv("sim.events", c.events);
        w.kv("sim.ns_per_event", ratio(run_ns, double(c.events)));
        w.kv("sim.probe_near_ns", probe.eq_near_ns);
        w.kv("sim.probe_far_ns", probe.eq_far_ns);
        w.kv("sim.unexplained_share", 1.0 - hit_share - miss_share);
        w.kv("cpu.ops", c.ops);
        w.kv("cpu.events_per_op", ratio(double(c.events), double(c.ops)));
        w.kv("cpu.probe_hit_ns", probe.hit_ns);
        w.kv("cpu.hit_share", hit_share);
        w.kv("cpu.setup_ms_per_point",
             median(samples(false, [](const Pass &p) {
                 return p.times.setup;
             })) * 1e3 / n);
        w.kv("cpu.probe_system_ms", probe.system_ms);
        w.kv("cache.hits", c.hits);
        w.kv("cache.misses", c.misses);
        w.kv("cache.hit_frac",
             ratio(double(c.hits), double(c.hits + c.misses)));
        w.kv("proto.probe_miss_ns", probe.miss_ns);
        w.kv("proto.miss_share", miss_share);
        w.kv("proto.nacks", c.nacks);
        w.kv("proto.retries", c.retries);
        w.kv("proto.atomic_success_frac",
             c.atomic_tries == 0
                 ? 1.0
                 : double(c.atomic_ok) / double(c.atomic_tries));
        w.kv("net.messages", c.messages);
        w.kv("net.hops_per_msg", ratio(double(c.hop_sum), double(c.messages)));
        w.kv("net.probe_msg_ns", probe.mesh_msg_ns);
        w.kv("mem.accesses", c.mem_accesses);
        w.kv("mem.queue_cycles_per_access",
             ratio(double(c.mem_queue), double(c.mem_accesses)));
        w.kv("stats.harvest_ms_per_point",
             median(samples(false, [](const Pass &p) {
                 return p.times.harvest;
             })) * 1e3 / n);
        w.kv("stats.probe_json_ms", probe.stats_json_ms);
        std::vector<double> pt = pointMs();
        w.kv("exp.point_ms_p50", percentile(pt, 0.5));
        w.kv("exp.point_ms_p90", percentile(pt, 0.9));
        w.kv("exp.point_ms_max", percentile(pt, 1.0));
        w.kv("mc.states", c.mc_states);
        w.kv("mc.transitions", c.mc_transitions);
        w.kv("mc.us_per_transition",
             ratio(explore_s * 1e6, double(c.mc_transitions)));
        w.kv("mc.probe_us_per_transition", probe.mc_us_per_transition);
        w.kv("trace.overhead_frac", ratio(traced_wall, wall) - 1.0);
        w.kv("host.speed", speed());
        w.kv("host.raw_wall_s", rawWall());
        w.kv("host.raw_setup_s", rawSetup());

        // Simulated-time split of every traced op (TxnTracer phases).
        std::uint64_t ph[NUM_TXN_PHASES] = {}, total = 0;
        for (const PointRun &r : lastTraced().runs) {
            for (int i = 0; i < NUM_TXN_PHASES; ++i)
                ph[i] += r.phase_cycles[i];
            total += r.phase_total;
        }
        auto frac = [&](std::uint64_t v) {
            return ratio(double(v), double(total));
        };
        auto at = [&](TxnPhase p) { return ph[static_cast<int>(p)]; };
        w.kv("sim_phase.cache_frac", frac(at(TxnPhase::CACHE)));
        w.kv("sim_phase.transit_frac",
             frac(at(TxnPhase::REQ_TRANSIT) + at(TxnPhase::REPLY_TRANSIT)));
        w.kv("sim_phase.dir_queue_frac", frac(at(TxnPhase::DIR_QUEUE)));
        w.kv("sim_phase.dir_service_frac", frac(at(TxnPhase::DIR_SERVICE)));
        w.kv("sim_phase.owner_frac", frac(at(TxnPhase::OWNER)));
        w.kv("sim_phase.fanout_frac", frac(at(TxnPhase::FANOUT)));
        w.kv("sim_phase.retry_wait_frac", frac(at(TxnPhase::RETRY_WAIT)));
    }

    const Pass &
    lastTraced() const
    {
        for (auto it = _passes.rbegin(); it != _passes.rend(); ++it)
            if (it->traced)
                return *it;
        return _passes.front();
    }

    /** Each point's median host ms over the untraced timing passes. */
    std::vector<double>
    pointMs() const
    {
        std::vector<double> v;
        for (std::size_t i = 0; i < _points.size(); ++i)
            v.push_back(1e3 * median(samples(false, [i](const Pass &p) {
                            return p.runs[i].times.total();
                        })));
        return v;
    }

    /** The slowest point (untraced medians) and traced window. */
    void
    slowest(JsonWriter &w) const
    {
        std::vector<double> pt = pointMs();
        std::size_t worst = std::max_element(pt.begin(), pt.end()) -
                            pt.begin();
        w.beginObject();
        w.kv("point", _points[worst].label);
        w.kv("point_ms", pt[worst]);
        if (_spans != nullptr) {
            // The slowest window under the slowest point's run span.
            std::uint64_t run_span = 0;
            for (const Span &s : _spans->spans()) {
                if (s.cat == "point" && s.name == _points[worst].label) {
                    for (const Span &c : _spans->spans())
                        if (c.parent == s.id && c.name == "run")
                            run_span = c.id;
                }
            }
            const Span *win = nullptr;
            for (const Span &s : _spans->spans())
                if (s.parent == run_span && s.cat == "window" &&
                    (win == nullptr ||
                     s.end - s.start > win->end - win->start))
                    win = &s;
            if (win != nullptr) {
                w.key("window");
                w.beginObject();
                w.kv("host_ms", (win->end - win->start) * 1e3);
                for (const auto &[k, v] : win->args)
                    w.kv(k, v);
                w.endObject();
            }
        }
        w.endObject();
    }

    const Options &_opt;
    std::vector<Point> _points;
    std::vector<Pass> _passes;
    std::vector<std::uint64_t> _executions, _failures;
    std::vector<std::string> _problems;
    std::unique_ptr<SpanLog> _spans;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::vector<Point> points = buildWorkload(opt.workload, opt.seed);
    if (points.empty())
        usage(("unknown workload '" + opt.workload + "'").c_str());
    if (opt.mem_service_time != 0)
        for (Point &p : points)
            p.cfg.machine.mem_service_time = opt.mem_service_time;

    Bench bench(opt, std::move(points));
    ProbeResults probes;
    double start = hostNow();
    if (opt.trace)
        probes = runProbes();
    // Start another pass while it would end, on the last pass's pace,
    // no more than half a pass past the budget.
    double last = 0;
    auto more = [&](int done) {
        int min_passes = opt.trace ? 4 : 1;
        return done < min_passes ||
               hostNow() - start + last / 2 < opt.seconds;
    };
    // Untraced runs time every pass; traced runs alternate untraced
    // and traced passes after the first (reference) pass.
    for (int done = 0; more(done); ++done) {
        double t0 = hostNow();
        bench.pass(opt.trace && done % 2 == 1);
        last = hostNow() - t0;
    }

    JsonWriter w;
    bench.writeJson(w, opt.trace ? &probes : nullptr);
    std::printf("%s\n", w.str().c_str());
    if (!opt.spans.empty())
        bench.writeSpans(opt.spans);
    return 0;
}
