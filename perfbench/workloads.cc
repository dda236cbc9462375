/**
 * @file
 * The benchmark's workloads and the per-point runner.
 *
 * Each workload stresses a different simulator layer (see README.md):
 *  - tc_spin: Figure 1 Transitive Closure; nearly every event is a
 *    local cache hit in a barrier or flag spin loop;
 *  - counter_storm: Figure 3 lock-free counter at c=64 across the
 *    application matrix; remote misses, messages, home queueing and
 *    NACK / failed-SC retries;
 *  - app_sweep: Figure 6 LocusRoute-like and Cholesky-like stand-ins
 *    over many short points; System construction, statsJson and
 *    far-future compute delays;
 *  - mc_verify: mc::explore on 3-node x 1-op points across the
 *    application matrix; the transition functions driven by the
 *    explorer, plus its visited-state memory.
 */

#include <memory>

#include "bench.hh"
#include "cpu/system.hh"
#include "exp/experiment.hh"
#include "mc/explorer.hh"
#include "spans.hh"
#include "stats/bench_report.hh"
#include "sync/lockfree_counter.hh"

namespace perfbench {

namespace {

/** Transitive Closure matrix size for tc_spin. */
constexpr int TC_SIZE = 10;
/** Barrier-separated phases of the counter_storm counter. */
constexpr int STORM_PHASES = 64;
/** TaskQueueConfig::seed values per (impl, app) in app_sweep. */
constexpr int SWEEP_SEEDS = 6;
/** Tasks per app_sweep point. */
constexpr int SWEEP_TASKS = 48;
/** Atomic operations per processor in the mc_verify points. */
constexpr int MC_OPS = 1;
constexpr int MC_NODES = 3;

/** The Figure 6 / ablation implementation matrix, by label. */
ImplCase
implByLabel(const std::string &label)
{
    for (const ImplCase &ic : applicationMatrix())
        if (ic.label == label)
            return ic;
    dsm_fatal("no implementation named '%s'", label.c_str());
}

Point
basePoint(std::string label, Kind kind, const ImplCase &impl,
          std::uint64_t seed)
{
    Point p;
    p.label = std::move(label);
    p.kind = kind;
    p.cfg.sync = impl.sync;
    p.cfg.machine.seed = seed;
    return p;
}

std::vector<Point>
tcSpin(std::uint64_t seed)
{
    std::vector<Point> v;
    for (const char *name : {"UNC FAP", "INV CAS"}) {
        ImplCase impl = implByLabel(name);
        Point p = basePoint(csprintf("tc%d %s", TC_SIZE, name), Kind::TC,
                            impl, seed);
        p.tc.size = TC_SIZE;
        p.tc.prim = impl.prim;
        p.tc.seed = seed;
        v.push_back(std::move(p));
    }
    return v;
}

std::vector<Point>
counterStorm(std::uint64_t seed)
{
    std::vector<Point> v;
    for (const ImplCase &impl : applicationMatrix()) {
        Point p = basePoint("lockfree c=64 " + impl.label, Kind::COUNTER,
                            impl, seed);
        p.counter.kind = CounterKind::LOCK_FREE;
        p.counter.prim = impl.prim;
        p.counter.contention = 64;
        p.counter.phases = STORM_PHASES;
        v.push_back(std::move(p));
    }
    return v;
}

std::vector<Point>
appSweep(std::uint64_t seed)
{
    std::vector<Point> v;
    for (const ImplCase &impl : applicationMatrix()) {
        for (int app = 0; app < 2; ++app) {
            for (int j = 0; j < SWEEP_SEEDS; ++j) {
                std::uint64_t tq_seed = seed * SWEEP_SEEDS + j;
                Kind kind = app == 0 ? Kind::LOCUS : Kind::CHOLESKY;
                Point p = basePoint(
                    csprintf("%s %s s%llu",
                             app == 0 ? "locus" : "cholesky",
                             impl.label.c_str(),
                             (unsigned long long)tq_seed),
                    kind, impl, seed);
                // Figure 6's task shapes, with fewer tasks per point.
                p.tq.prim = impl.prim;
                p.tq.num_tasks = SWEEP_TASKS;
                p.tq.seed = tq_seed;
                if (kind == Kind::LOCUS) {
                    p.tq.work_min = 80000;
                    p.tq.work_max = 240000;
                } else {
                    p.tq.work_min = 30000;
                    p.tq.work_max = 90000;
                    p.tq.cs_words = 3;
                    p.tq.backoff_cap = 4096;
                }
                v.push_back(std::move(p));
            }
        }
    }
    return v;
}

std::vector<Point>
mcVerify(std::uint64_t seed)
{
    std::vector<Point> v;
    for (const ImplCase &impl : applicationMatrix()) {
        Point p = basePoint(csprintf("mc %dn%dop %s", MC_NODES, MC_OPS,
                                     impl.label.c_str()),
                            Kind::MC, impl, seed);
        p.cfg.mc.nodes = MC_NODES;
        p.cfg.mc.ops_per_proc = MC_OPS;
        p.cfg.mc.primitive = impl.prim;
        // The simulated cross-check runs the same program on a machine
        // of the same size.
        p.cfg.machine.num_procs = MC_NODES;
        p.cfg.machine.mesh_x = MC_NODES;
        p.cfg.machine.mesh_y = 1;
        v.push_back(std::move(p));
    }
    return v;
}

/** Sum the per-layer counters of @p sys. */
LayerCounts
readCounts(System &sys)
{
    LayerCounts c;
    c.events = sys.eq().eventsExecuted();
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        c.ops += sys.proc(n).opsIssued();
        const CacheStats &cs = sys.ctrl(n).cache().stats();
        c.hits += cs.hits;
        c.misses += cs.misses;
        c.mem_accesses += sys.mem(n).accesses();
        c.mem_queue += sys.mem(n).queueCycles();
    }
    SysStats agg = sys.stats();
    c.nacks = agg.nacks;
    c.retries = agg.retries;
    c.atomic_ok = agg.sc_successes + agg.cas_successes;
    c.atomic_tries = c.atomic_ok + agg.sc_failures + agg.cas_failures;
    c.messages = sys.mesh().stats().messages;
    c.hop_sum = sys.mesh().stats().hop_sum;
    return c;
}

/**
 * The counts the benchmark reads must agree with the library's own
 * harvest at quiescence. Returns "" or the first disagreement.
 */
std::string
reconcile(System &sys, const LayerCounts &c, const RunMetrics &m)
{
    if (m.ops != c.ops)
        return csprintf("ops: Proc::opsIssued sums to %llu, "
                        "collectRunMetrics reports %llu",
                        (unsigned long long)c.ops,
                        (unsigned long long)m.ops);
    if (m.messages != c.messages)
        return "messages: mesh stats disagree with collectRunMetrics";
    std::uint64_t inj = 0, ej = 0;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        inj += sys.mesh().injMsgs(n);
        ej += sys.mesh().ejMsgs(n);
    }
    if (inj != c.messages || ej != c.messages)
        return csprintf("messages: %llu sent, %llu injected, %llu "
                        "ejected at quiescence",
                        (unsigned long long)c.messages,
                        (unsigned long long)inj, (unsigned long long)ej);
    return "";
}

Task
incrementTask(LockFreeCounter &ctr, Proc &p, int ops)
{
    for (int i = 0; i < ops; ++i)
        co_await ctr.fetchInc(p);
}

/**
 * Samples simulated windows from outside the library through
 * EventQueue::setSampler, recording one span per window that executed
 * events: host time plus event, cache-hit and message deltas.
 */
class WindowSampler
{
  public:
    WindowSampler(System &sys, SpanLog &log, std::uint64_t parent)
        : _sys(sys), _log(log), _parent(parent), _host(hostNow())
    {
    }

    void
    sample(Tick boundary)
    {
        double now = hostNow();
        std::uint64_t events = _sys.eq().eventsExecuted();
        if (events != _events) {
            std::uint64_t hits = 0;
            for (NodeId n = 0; n < _sys.numProcs(); ++n)
                hits += _sys.ctrl(n).cache().stats().hits;
            std::uint64_t msgs = _sys.mesh().stats().messages;
            Span s;
            s.parent = _parent;
            s.name = "window";
            s.cat = "window";
            s.start = _host;
            s.end = now;
            s.args = {{"tick_lo", double(_tick)},
                      {"tick_hi", double(boundary)},
                      {"events", double(events - _events)},
                      {"hits", double(hits - _hits)},
                      {"messages", double(msgs - _msgs)}};
            _log.add(std::move(s));
            _events = events;
            _hits = hits;
            _msgs = msgs;
        }
        _tick = boundary;
        _host = now;
    }

  private:
    System &_sys;
    SpanLog &_log;
    std::uint64_t _parent;
    double _host;
    Tick _tick = 0;
    std::uint64_t _events = 0, _hits = 0, _msgs = 0;
};

/**
 * Simulated-window length for the traced run, per runner: about 5–250
 * windows per point at this benchmark's sizes.
 */
Tick
windowFor(Kind k)
{
    switch (k) {
    case Kind::TC:
        return 1 << 12;
    case Kind::COUNTER:
        return 1 << 15;
    case Kind::LOCUS:
    case Kind::CHOLESKY:
        return 1 << 14;
    case Kind::MC:
        return 1 << 5;
    }
    return 1 << 14;
}

/** Run the point's application; returns "" or the check that failed. */
std::string
runApp(System &sys, const Point &p, Tick &elapsed)
{
    switch (p.kind) {
    case Kind::TC: {
        TcResult r = runTransitiveClosure(sys, p.tc);
        elapsed = r.elapsed;
        if (!r.completed)
            return "transitive closure did not complete";
        return r.correct ? "" : "transitive closure is wrong";
    }
    case Kind::COUNTER: {
        CounterAppResult r = runCounterApp(sys, p.counter);
        elapsed = r.elapsed;
        if (!r.completed)
            return "counter app did not complete";
        return r.correct ? "" : "counter app lost an update";
    }
    case Kind::LOCUS:
    case Kind::CHOLESKY: {
        TaskQueueResult r = p.kind == Kind::LOCUS
                                ? runLocusLike(sys, p.tq)
                                : runCholeskyLike(sys, p.tq);
        elapsed = r.elapsed;
        if (!r.completed)
            return "task-queue app did not complete";
        return r.correct ? "" : "task-queue app ran a task twice";
    }
    case Kind::MC: {
        // The explorer ran first (runPoint); simulate the same program.
        LockFreeCounter ctr(sys, p.cfg.mc.primitive);
        Tick t0 = sys.now();
        for (NodeId n = 0; n < sys.numProcs(); ++n)
            sys.spawn(incrementTask(ctr, sys.proc(n), p.cfg.mc.ops_per_proc));
        RunResult rr = sys.run();
        elapsed = sys.now() - t0;
        sys.reapTasks();
        if (!rr.completed)
            return "simulated cross-check did not complete";
        Word want = Word(sys.numProcs()) * Word(p.cfg.mc.ops_per_proc);
        return sys.debugRead(ctr.addr()) == want
                   ? ""
                   : "simulated cross-check lost an increment";
    }
    }
    return "unknown point kind";
}

} // namespace

void
LayerCounts::add(const LayerCounts &o)
{
    events += o.events;
    ops += o.ops;
    hits += o.hits;
    misses += o.misses;
    nacks += o.nacks;
    retries += o.retries;
    atomic_ok += o.atomic_ok;
    atomic_tries += o.atomic_tries;
    messages += o.messages;
    hop_sum += o.hop_sum;
    mem_accesses += o.mem_accesses;
    mem_queue += o.mem_queue;
    mc_states += o.mc_states;
    mc_transitions += o.mc_transitions;
}

std::vector<Point>
buildWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "tc_spin")
        return tcSpin(seed);
    if (name == "counter_storm")
        return counterStorm(seed);
    if (name == "app_sweep")
        return appSweep(seed);
    if (name == "mc_verify")
        return mcVerify(seed);
    return {};
}

PointRun
runPoint(const Point &p, SpanLog *spans, std::uint64_t parent)
{
    PointRun out;
    std::uint64_t point_span = 0, phase = 0;
    if (spans != nullptr) {
        point_span = spans->open(p.label, "point", parent);
        phase = spans->open("setup", "phase", point_span);
    }

    double t0 = hostNow();
    Config cfg = p.cfg;
    if (spans != nullptr)
        cfg.txn_trace.enabled = true;
    auto sys = std::make_unique<System>(cfg);
    double t1 = hostNow();

    if (spans != nullptr) {
        spans->close(phase);
        phase = spans->open("run", "phase", point_span);
    }
    // The explorer builds its own closed system; only the simulated
    // cross-check uses the System, so the sampler attaches after it.
    mc::Result explored;
    if (p.kind == Kind::MC)
        explored = mc::explore(p.cfg);
    double t_mc = hostNow();

    std::unique_ptr<WindowSampler> sampler;
    if (spans != nullptr) {
        sampler = std::make_unique<WindowSampler>(*sys, *spans, phase);
        sys->eq().setSampler(windowFor(p.kind),
                             [s = sampler.get()](Tick t) { s->sample(t); });
    }
    Tick elapsed = 0;
    out.problem = runApp(*sys, p, elapsed);
    if (p.kind == Kind::MC && !explored.ok())
        out.problem = "mc::explore found a violation or hit its state cap";
    double t2 = hostNow();

    if (spans != nullptr) {
        sampler->sample(sys->now()); // the final partial window
        spans->close(phase);
        phase = spans->open("harvest", "phase", point_span);
    }
    RunMetrics m = collectRunMetrics(*sys);
    out.counts = readCounts(*sys);
    if (p.kind == Kind::MC) {
        out.counts.mc_states = explored.states;
        out.counts.mc_transitions = explored.transitions;
        out.digest = {{"states", explored.states},
                      {"transitions", explored.transitions},
                      {"terminals", explored.terminals}};
    }
    out.digest.push_back({"cycles", elapsed});
    out.digest.push_back({"ops", m.ops});
    out.digest.push_back({"messages", m.messages});
    out.digest.push_back({"stats", fnv1a(sys->statsJson())});
    if (out.problem.empty())
        out.problem = reconcile(*sys, out.counts, m);
    if (spans != nullptr) {
        const PhaseAttribution &attr = sys->txns().attribution();
        for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
            out.phase_cycles[ph] = attr.allPhaseStat(ph)->sum;
        out.phase_total = attr.allTotalStat()->sum;
    }
    sys.reset();
    double t3 = hostNow();

    if (spans != nullptr) {
        spans->close(phase);
        spans->close(point_span);
    }
    out.times.setup = t1 - t0;
    out.times.explore = t_mc - t1;
    out.times.run = t2 - t1;
    out.times.harvest = t3 - t2;
    return out;
}

} // namespace perfbench
