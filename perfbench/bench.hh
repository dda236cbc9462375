/**
 * @file
 * Host-performance benchmark of the simulator: shared declarations.
 *
 * The driver runs one named workload — a fixed list of points, each a
 * (machine config, application) pair — repeatedly for a time budget,
 * timing the calls it makes into each library layer, and checks every
 * point's simulated result. It uses only the simulator's public API.
 */

#ifndef DSM_PERFBENCH_BENCH_HH
#define DSM_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "stats/attribution.hh"
#include "workloads/counter_apps.hh"
#include "workloads/task_queue_apps.hh"
#include "workloads/transitive_closure.hh"

namespace perfbench {

using namespace dsm;

/** Host wall clock in seconds since an arbitrary epoch. */
inline double
hostNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p v; 0 if it is empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** 64-bit FNV-1a hash, for digests of rendered statistics. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Which library runner a point drives. */
enum class Kind
{
    TC,       ///< runTransitiveClosure (Figure 1)
    COUNTER,  ///< runCounterApp (Figure 3)
    LOCUS,    ///< runLocusLike (Figure 6)
    CHOLESKY, ///< runCholeskyLike (Figure 6)
    MC,       ///< mc::explore plus a simulated run of the same program
};

/** One unit of work: a machine configuration and an application. */
struct Point
{
    std::string label;
    Kind kind = Kind::TC;
    Config cfg;
    TcConfig tc;
    CounterAppConfig counter;
    TaskQueueConfig tq;
};

/**
 * The points of workload @p name under workload seed @p seed (which
 * feeds Config::machine.seed, TcConfig::seed and TaskQueueConfig::seed).
 * Empty if the name is unknown.
 */
std::vector<Point> buildWorkload(const std::string &name,
                                 std::uint64_t seed);

/**
 * Per-layer counts read from the library's public accessors after one
 * point. All are exact: the simulator is deterministic.
 */
struct LayerCounts
{
    std::uint64_t events = 0;       ///< EventQueue::eventsExecuted
    std::uint64_t ops = 0;          ///< sum of Proc::opsIssued
    std::uint64_t hits = 0;         ///< cache hits, all nodes
    std::uint64_t misses = 0;       ///< cache misses, all nodes
    std::uint64_t nacks = 0;        ///< SysStats::nacks
    std::uint64_t retries = 0;      ///< SysStats::retries
    std::uint64_t atomic_ok = 0;    ///< successful CAS + SC
    std::uint64_t atomic_tries = 0; ///< all CAS + SC attempts
    std::uint64_t messages = 0;     ///< MeshStats::messages
    std::uint64_t hop_sum = 0;      ///< MeshStats::hop_sum
    std::uint64_t mem_accesses = 0; ///< sum of MemModule::accesses
    std::uint64_t mem_queue = 0;    ///< sum of MemModule::queueCycles
    std::uint64_t mc_states = 0;    ///< mc::Result::states
    std::uint64_t mc_transitions = 0;

    void add(const LayerCounts &o);
};

/** Host time of one point, split at the library-call boundaries. */
struct PointTimes
{
    double setup = 0;   ///< building the System (and mc inputs)
    double run = 0;     ///< the explorer and runner calls
    double explore = 0; ///< the mc::explore part of run
    double harvest = 0; ///< reading results, statsJson, teardown
    double total() const { return setup + run + harvest; }
};

/**
 * A point's simulated digest: named exact values (cycles, ops,
 * messages, statsJson hash; explorer counts for mc points). Two
 * commits that simulate identically produce identical digests.
 */
using Digest = std::vector<std::pair<std::string, std::uint64_t>>;

/** One execution of one point. */
struct PointRun
{
    Digest digest;
    /** Empty if every check passed, else the first failure. */
    std::string problem;
    LayerCounts counts;
    PointTimes times;
    /** Txn-tracer phase cycle sums (traced runs only). */
    std::uint64_t phase_cycles[NUM_TXN_PHASES] = {};
    std::uint64_t phase_total = 0;
};

class SpanLog;

/**
 * Run @p p once. With @p spans non-null the run is traced: the
 * transaction tracer is on, simulated windows are sampled through
 * EventQueue::setSampler, and setup/run/harvest spans are recorded
 * under @p parent.
 */
PointRun runPoint(const Point &p, SpanLog *spans, std::uint64_t parent);

/** Results of the isolated per-layer probes (nanoseconds unless noted). */
struct ProbeResults
{
    double eq_near_ns = 0;   ///< schedule+run, delays 1..64
    double eq_far_ns = 0;    ///< schedule+run, delays 1e4..1e5
    double mesh_msg_ns = 0;  ///< Mesh::send plus delivery, 8x8
    double hit_ns = 0;       ///< one Proc load that hits
    double miss_ns = 0;      ///< one Proc store that misses remotely
    double system_ms = 0;    ///< System construction, 64 nodes
    double stats_json_ms = 0; ///< System::statsJson
    double mc_us_per_transition = 0; ///< small fixed mc::explore
    /** Non-empty if a probe's own sanity check failed. */
    std::string problem;
};

/** Run every probe; each is repeated and its median reported. */
ProbeResults runProbes();

} // namespace perfbench

#endif // DSM_PERFBENCH_BENCH_HH
