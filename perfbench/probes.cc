/**
 * @file
 * Per-layer probes: each times one library layer's public API in
 * isolation, so a workload's host time can be split into the share its
 * local hits and its remote misses explain (see README.md).
 */

#include <memory>

#include "bench.hh"
#include "cpu/system.hh"
#include "mc/explorer.hh"
#include "net/mesh.hh"
#include "sim/event_queue.hh"

namespace perfbench {

namespace {

/** Each probe runs this many times; the median is reported. */
constexpr int REPEATS = 5;

template <typename F>
double
medianOf(F &&f)
{
    std::vector<double> v;
    for (int i = 0; i < REPEATS; ++i)
        v.push_back(f());
    return median(std::move(v));
}

/** Deterministic delay stream for the queue and mesh probes. */
struct Lcg
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t
    next(std::uint64_t bound)
    {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return (x >> 33) % bound;
    }
};

/**
 * Keep @c DEPTH events pending on a fresh EventQueue; every event that
 * fires schedules a replacement with a delay in [lo, hi] until the
 * budget is spent. Returns ns per event (schedule + run).
 */
double
probeQueue(Tick lo, Tick hi)
{
    constexpr int DEPTH = 64;
    constexpr std::uint64_t EVENTS = 1'000'000;
    struct State
    {
        EventQueue eq;
        Lcg lcg;
        std::uint64_t left = EVENTS;
        Tick lo, hi;

        void
        fire()
        {
            if (left == 0)
                return;
            --left;
            eq.scheduleIn(lo + lcg.next(hi - lo + 1), [this] { fire(); });
        }
    };
    State st;
    st.lo = lo;
    st.hi = hi;
    for (int i = 0; i < DEPTH; ++i)
        st.fire();
    double t0 = hostNow();
    std::uint64_t ran = st.eq.run();
    return (hostNow() - t0) * 1e9 / double(ran);
}

/**
 * Mesh::send plus delivery on the paper's 8x8 mesh: 64 messages in
 * flight, each delivery sending a new one to a pseudo-random node.
 * Returns ns per message.
 */
double
probeMesh()
{
    constexpr std::uint64_t MESSAGES = 500'000;
    EventQueue eq;
    MachineConfig mc;
    Mesh mesh(eq, mc);
    Lcg lcg;
    std::uint64_t left = MESSAGES;
    auto send = [&](NodeId src) {
        Msg m;
        m.type = MsgType::GET_S;
        m.src = src;
        m.dst = static_cast<NodeId>(lcg.next(mc.num_procs));
        if (m.dst == src)
            m.dst = static_cast<NodeId>((src + 1) % mc.num_procs);
        mesh.send(m);
    };
    for (NodeId n = 0; n < mc.num_procs; ++n) {
        mesh.setHandler(n, [&, n](const Msg &) {
            if (left > 0) {
                --left;
                send(n);
            }
        });
    }
    for (NodeId n = 0; n < mc.num_procs; ++n)
        send(n);
    double t0 = hostNow();
    eq.run();
    double dt = hostNow() - t0;
    return dt * 1e9 / double(mesh.stats().messages);
}

Task
loadLoop(Proc &p, Addr a, int n)
{
    for (int i = 0; i < n; ++i)
        co_await p.load(a);
}

/**
 * Two processors store to one line in turn, half a period apart, so
 * every store finds the line owned by the other: each is a remote miss
 * with an ownership transfer.
 */
Task
pingPong(Proc &p, Addr a, int n, Tick period, bool second)
{
    if (second)
        co_await p.compute(period / 2);
    for (int i = 0; i < n; ++i) {
        co_await p.store(a, Word(i));
        co_await p.compute(period);
    }
}

struct ProcProbe
{
    double ns_per_op = 0;
    std::uint64_t ops = 0, hits = 0, misses = 0;
};

template <typename Spawn>
ProcProbe
probeProc(Spawn &&spawn)
{
    Config cfg;
    System sys(cfg);
    Addr a = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    spawn(sys, a);
    double t0 = hostNow();
    sys.run();
    double dt = hostNow() - t0;
    ProcProbe r;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        r.ops += sys.proc(n).opsIssued();
        r.hits += sys.ctrl(n).cache().stats().hits;
        r.misses += sys.ctrl(n).cache().stats().misses;
    }
    r.ns_per_op = dt * 1e9 / double(r.ops);
    return r;
}

} // namespace

ProbeResults
runProbes()
{
    ProbeResults r;
    r.eq_near_ns = medianOf([] { return probeQueue(1, 64); });
    r.eq_far_ns = medianOf([] { return probeQueue(10000, 100000); });
    r.mesh_msg_ns = medianOf(probeMesh);

    constexpr int HIT_OPS = 500'000;
    ProcProbe hit;
    r.hit_ns = medianOf([&] {
        hit = probeProc([](System &sys, Addr a) {
            sys.spawn(loadLoop(sys.proc(0), a, HIT_OPS));
        });
        return hit.ns_per_op;
    });
    if (hit.hits + 1 != hit.ops)
        r.problem = csprintf("hit probe: %llu hits in %llu loads",
                             (unsigned long long)hit.hits,
                             (unsigned long long)hit.ops);

    constexpr int MISS_OPS = 20'000;
    ProcProbe miss;
    r.miss_ns = medianOf([&] {
        miss = probeProc([](System &sys, Addr a) {
            sys.spawn(pingPong(sys.proc(0), a, MISS_OPS, 1000, false));
            sys.spawn(pingPong(sys.proc(9), a, MISS_OPS, 1000, true));
        });
        return miss.ns_per_op;
    });
    if (miss.misses != miss.ops)
        r.problem = csprintf("miss probe: %llu misses in %llu stores",
                             (unsigned long long)miss.misses,
                             (unsigned long long)miss.ops);

    Config cfg;
    r.system_ms = medianOf([&] {
        double t0 = hostNow();
        auto sys = std::make_unique<System>(cfg);
        return (hostNow() - t0) * 1e3;
    });
    {
        System sys(cfg);
        r.stats_json_ms = medianOf([&] {
            double t0 = hostNow();
            sys.statsJson();
            return (hostNow() - t0) * 1e3;
        });
    }

    Config mcfg;
    mcfg.sync.policy = SyncPolicy::INV;
    mcfg.mc.nodes = 2;
    mcfg.mc.ops_per_proc = 2;
    mcfg.mc.primitive = Primitive::LLSC;
    r.mc_us_per_transition = medianOf([&] {
        double t0 = hostNow();
        mc::Result res = mc::explore(mcfg);
        if (!res.ok())
            r.problem = "mc probe: exploration failed";
        return (hostNow() - t0) * 1e6 / double(res.transitions);
    });
    return r;
}

} // namespace perfbench
