/**
 * @file
 * Parallel execution engine for Experiment sweeps.
 *
 * A sweep is a list of Points, each a fully independent deterministic
 * simulation (its own Config, seed, and System). The SweepRunner
 * executes them across a pool of host threads and delivers results
 * indexed by declaration order, so a parallel run is bit-identical to
 * a serial one: each point's outcome depends only on its Config, never
 * on which thread ran it or when.
 */

#ifndef DSM_EXP_SWEEP_RUNNER_HH
#define DSM_EXP_SWEEP_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "stats/bench_report.hh"

namespace dsm {

class System;

/** What one executed sweep point produced. */
struct PointResult
{
    /** Headline number shown in the point's table cell. */
    double value = 0.0;
    /** Standard metric harvest; the point function fills this. */
    RunMetrics metrics;
    /** Extra machine-readable row fields (spliced before metrics). */
    BenchRow fields;
    /** Optional free-form block printed with the results. */
    std::string text;

    /** @name Transaction-tracer harvest (filled by Experiment when
     *  transaction tracing is on; empty otherwise). @{ */
    /** Chrome trace events of this point, a rendered JSON array. */
    std::string txn_events;
    /** One-line phase-attribution summary. */
    std::string txn_summary;
    std::uint64_t txn_divergences = 0; ///< Table 1 chain divergences
    std::uint64_t txn_mismatches = 0;  ///< phase-sum != latency count
    /** @} */

    /**
     * Telemetry harvest (filled by Experiment when timeseries() is on,
     * empty otherwise): System::telemetryJson() of this point, a
     * rendered JSON object.
     */
    std::string ts_json;

    /**
     * Host provenance (filled by the runner): the events the point's
     * model ran and how many of them were elided spin iterations.
     * Written only into the report file's meta, never into rows.
     */
    std::uint64_t events_modelled = 0;
    std::uint64_t events_elided = 0;
};

/** The workload of one point, run on a freshly built System. */
using PointFn = std::function<PointResult(System &)>;

/** One independent simulation of a sweep. */
struct Point
{
    std::string row;  ///< table row this point belongs to
    std::string col;  ///< table column this point belongs to
    Config cfg;       ///< complete machine + sync config (incl. seed)
    PointFn fn;       ///< builds the workload, runs it, harvests
};

/**
 * Executes a list of Points across @c jobs host threads.
 *
 * Results are returned in declaration order regardless of completion
 * order. With jobs == 1 everything runs inline on the calling thread
 * (no pool is created), which is the reference behaviour that parallel
 * runs are guaranteed to reproduce byte-for-byte.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs Worker threads; <= 0 resolves via resolveJobs(0)
     *             ($DSM_JOBS, default 1).
     */
    explicit SweepRunner(int jobs = 0);

    /** The resolved worker-thread count. */
    int jobs() const { return _jobs; }

    /**
     * Run every point; return results in declaration order.
     * @param on_done Optional progress hook, called once per completed
     *        point (with its declaration index) under an internal lock;
     *        callbacks never run concurrently.
     */
    std::vector<PointResult>
    run(const std::vector<Point> &points,
        const std::function<void(std::size_t)> &on_done = {});

    /**
     * Like run(), but fills a caller-owned result vector (resized to
     * points.size() first). When @p on_done fires for index i, @p out
     * already holds the results of every completed point, so streaming
     * consumers may read out[j] for any j they know to be done.
     */
    void runInto(const std::vector<Point> &points,
                 std::vector<PointResult> &out,
                 const std::function<void(std::size_t)> &on_done = {});

    /**
     * Resolve a requested job count: a positive request wins, else
     * $DSM_JOBS if set and positive, else 1.
     */
    static int resolveJobs(int requested);

  private:
    int _jobs;
};

/**
 * Call @p fn(i) once for every i in [0, n), on up to @p jobs host
 * threads (inline on the caller, in order, when jobs <= 1). Calls for
 * distinct indices may run concurrently, so @p fn must write only
 * state owned by its index.
 */
void forEachIndex(int jobs, std::size_t n,
                  const std::function<void(std::size_t)> &fn);

/**
 * Extract a "--jobs N" / "--jobs=N" / "-j N" flag from a bench binary's
 * command line. @return the value, or 0 if no flag is present (meaning:
 * fall back to $DSM_JOBS). dsm_fatal on a missing value or one that is
 * not a positive int, read exactly (parseInteger); the same holds for
 * the flags and variables below.
 */
int parseJobsFlag(int argc, char **argv);

/**
 * Extract a "--seed N" / "--seed=N" flag from a bench binary's command
 * line. @return the value, or 0 if no flag is present (meaning: fall
 * back to $DSM_SEED via Experiment::seed, else the config default).
 * dsm_fatal on a malformed or zero value.
 */
std::uint64_t parseSeedFlag(int argc, char **argv);

/**
 * Extract a "--seeds K" / "--seeds=K" flag (the number of consecutive
 * machine seeds a campaign runs per point) from a bench binary's
 * command line. @return the value, or @p fallback if no flag is
 * present. dsm_fatal on a missing, malformed or non-positive value.
 */
int parseSeedsFlag(int argc, char **argv, int fallback);

/** $DSM_SEED as an integer, or 0 when unset. dsm_fatal if malformed. */
std::uint64_t seedFromEnv();

} // namespace dsm

#endif // DSM_EXP_SWEEP_RUNNER_HH
