/**
 * @file
 * Top-level simulated machine: the event queue, interconnect, per-node
 * memory modules/directories/controllers/processors, the shared address
 * space, and the sync-region registry that assigns the studied coherence
 * policy to atomically accessed data (Section 3: the base protocol for
 * all other data is write-invalidate).
 */

#ifndef DSM_CPU_SYSTEM_HH
#define DSM_CPU_SYSTEM_HH

#include <memory>
#include <unordered_set>
#include <vector>

#include "cpu/admission.hh"
#include "cpu/proc.hh"
#include "cpu/sync_barrier.hh"
#include "cpu/task.hh"
#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "fault/watchdog.hh"
#include "mem/backing_store.hh"
#include "mem/directory.hh"
#include "mem/home_queue.hh"
#include "mem/mem_module.hh"
#include "net/mesh.hh"
#include "proto/controller.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/line_profiler.hh"
#include "stats/registry.hh"
#include "stats/sharing_tracker.hh"
#include "stats/stat_set.hh"
#include "stats/timeseries.hh"
#include "trace/trace.hh"
#include "trace/txn.hh"

namespace dsm {

/** Outcome of System::run(). */
struct RunResult
{
    bool completed = false;  ///< all spawned tasks finished
    bool deadlocked = false; ///< events drained with tasks pending
    bool livelocked = false; ///< the forward-progress watchdog tripped
    Tick end_tick = 0;
    std::uint64_t events = 0;
    /**
     * Human-readable failure report when deadlocked or livelocked:
     * which bound tripped (livelock) and every blocked transaction's
     * controller state, with TxnTracer span trees when transaction
     * tracing is on. Empty on success.
     */
    std::string diagnosis;
};

/** The whole simulated multiprocessor. */
class System
{
  public:
    explicit System(const Config &cfg);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** @name Component access. @{ */
    const Config &cfg() const { return _cfg; }
    EventQueue &eq() { return _eq; }
    Mesh &mesh() { return _mesh; }
    BackingStore &store() { return _store; }
    MemModule &mem(NodeId n) { return _mems[n]; }
    Directory &dir(NodeId n) { return _dirs[n]; }
    Controller &ctrl(NodeId n) { return *_ctrls[n]; }
    Proc &proc(NodeId n) { return *_procs[n]; }
    SharingTracker &sharing() { return _sharing; }
    Rng &rng() { return _rng; }
    int numProcs() const { return _cfg.machine.num_procs; }
    Tick now() const { return _eq.now(); }
    /** @} */

    /** @name Statistics and tracing. @{ */

    /** Mutable protocol statistics of node @p n (the hot-path sink). */
    SysStats &
    stats(NodeId n)
    {
        return _node_stats[static_cast<std::size_t>(n)];
    }

    /** System-wide aggregate: every node's statistics merged. */
    SysStats
    stats() const
    {
        SysStats agg;
        for (const SysStats &s : _node_stats)
            agg.merge(s);
        return agg;
    }

    /** Reset every node's protocol statistics (e.g. after warmup). */
    void
    clearStats()
    {
        // Parked spinners' elided hits so far belong to the old window.
        _eq.flushElided();
        for (SysStats &s : _node_stats)
            s = SysStats{};
        // Keep the fault counters in step with the protocol counters
        // they reconcile against (checker::checkFaultAccounting).
        if (_faults)
            _faults->clearCounters();
        if (_recovery)
            _recovery->clearCounters();
        // Telemetry delta series re-baseline against the zeroed
        // counters and drop recorded windows, so post-clear windows
        // again sum exactly to the post-clear aggregates. The line
        // profiler and link-flit matrix stay cumulative, like the
        // transaction tracer.
        if (_telemetry)
            _telemetry->rebaseline();
    }

    /** The hierarchical stats registry (per-node and global entries). */
    StatsRegistry &registry() { return _registry; }
    const StatsRegistry &registry() const { return _registry; }

    /** The protocol event tracer. */
    Tracer &tracer() { return _tracer; }

    /**
     * The transaction tracer (end-to-end per-operation tracing with
     * phase attribution and Table 1 chain validation). Unlike the
     * per-node SysStats, it is *not* reset by clearStats(): chain
     * validation is cumulative over the whole run.
     */
    TxnTracer &txns() { return _txns; }
    const TxnTracer &txns() const { return _txns; }

    /**
     * The fault injector, or nullptr when fault injection is off —
     * hot paths pay one branch, like the tracers. Like the
     * transaction tracer, the plan's RNG stream is not reset by
     * clearStats() (its counters are, see clearStats()).
     */
    FaultPlan *faults() { return _faults.get(); }

    /** The livelock watchdog, or nullptr when disabled. */
    Watchdog *watchdog() { return _watchdog.get(); }

    /**
     * The message-loss recovery layer (requester timers, home dedup,
     * drop ledger), or nullptr when FaultConfig::req_timeout is 0 —
     * the null-pointer gate that keeps loss-free runs zero-cost.
     */
    Recovery *recovery() { return _recovery.get(); }

    /**
     * The open-loop admission queues, or nullptr when open-loop
     * arrivals are off — the usual null-pointer gate (closed-loop runs
     * pay nothing and keep their exact stats JSON shape). Like the
     * transaction tracer, the serving counters are cumulative and not
     * reset by clearStats().
     */
    AdmissionQueues *admission() { return _admission.get(); }

    /**
     * Node @p n's explicit home service queue, or nullptr when the
     * overload-protection serving layer is off — the usual null-pointer
     * gate. When on, home-targeted requests buffer here (two service
     * classes, combining window) instead of in the memory module's
     * implicit FIFO.
     */
    HomeQueue *
    homeQueue(NodeId n)
    {
        return _home_queues.empty()
                   ? nullptr
                   : &_home_queues[static_cast<std::size_t>(n)];
    }

    /** Machine-wide serving-layer counters (serve.enabled only). */
    ServeStats &serveStats() { return _serve_stats; }
    const ServeStats &serveStats() const { return _serve_stats; }

    /**
     * Current credit-backpressure threshold under
     * serve.credit_threshold=auto: recomputed at every telemetry window
     * boundary as twice the mean of the recent per-window home-queue
     * depth samples, floored at 2 — a queue riding at its recent normal
     * is left alone, one spiking past twice normal throttles. Before
     * the first window (or with auto off) it is the configured
     * credit_threshold.
     */
    int adaptiveCreditThreshold() const { return _credit_threshold; }

    /**
     * The time-resolved telemetry sampler, or nullptr when telemetry
     * is off — the usual null-pointer gate. When on, the event queue
     * drives it at every TelemetryConfig::window boundary.
     */
    TimeSeries *telemetry() { return _telemetry.get(); }

    /**
     * The per-line contention profiler, or nullptr when telemetry is
     * off. Protocol hot paths pay one branch, like the tracers.
     */
    LineProfiler *lineProfiler() { return _line_prof.get(); }

    /**
     * Finalize sampling (records the residual partial window) and
     * render the full telemetry snapshot — the windowed series, the
     * ranked hot-line table, and the per-directed-link flit matrix —
     * as one JSON object. The payload of the dsm-timeseries-v1 export.
     * Telemetry must be on.
     */
    std::string telemetryJson();

    /** The full registry rendered as nested JSON. */
    std::string statsJson() const { return _registry.toJson(); }

    /** @} */

    /** Home node of the block containing @p a (block-interleaved). */
    NodeId
    homeOf(Addr a) const
    {
        return static_cast<NodeId>((a / BLOCK_BYTES) %
                                   static_cast<Addr>(numProcs()));
    }

    /** True if @p a lies in a registered synchronization block. */
    bool
    isSync(Addr a) const
    {
        return _sync_blocks.count(blockBase(a)) != 0;
    }

    /**
     * Coherence policy applied to accesses to @p a: the configured sync
     * policy for registered sync blocks, INV (the base write-invalidate
     * protocol) for everything else.
     */
    SyncPolicy
    policyOf(Addr a) const
    {
        return isSync(a) ? _cfg.sync.policy : SyncPolicy::INV;
    }

    /**
     * True when spin loops may park on their cached line: the
     * machine.spin_elision knob, unless a per-op observer (tracer,
     * transaction tracer, fault plan, recovery, watchdog) is on — each
     * of those must see every re-read.
     */
    bool spinElision() const { return _spin_elision; }

    /** @name Address-space management. @{ */

    /** Allocate ordinary shared memory. */
    Addr alloc(std::size_t bytes, std::size_t align = WORD_BYTES);

    /**
     * Allocate one block-aligned, block-padded synchronization variable
     * and register its block under the configured sync policy.
     * @return the address of the variable's first word.
     */
    Addr allocSync();

    /** allocSync(), placing the block's home at node @p home. */
    Addr allocSyncAt(NodeId home);

    /** alloc(), placing the first block's home at node @p home. */
    Addr allocAt(NodeId home, std::size_t bytes);

    /** Register an existing block as synchronization data. */
    void markSync(Addr a) { _sync_blocks.insert(blockBase(a)); }

    /** Initialize memory contents before (or between) runs. */
    void writeInit(Addr a, Word v) { _store.writeWord(a, v); }

    /**
     * Debug read of the globally most up-to-date value of word @p a:
     * the exclusive owner's cached copy if one exists, else memory.
     * For tests and result extraction only; has no timing effect.
     */
    Word debugRead(Addr a) const;

    /** @} */

    /** @name Thread management. @{ */

    /** Register a workload coroutine; it starts when run() is called. */
    void spawn(Task t);

    /** Number of spawned tasks that have not yet completed. */
    int tasksPending() const;

    /**
     * Run until every spawned task completes, the event queue drains,
     * or @p max_ticks of simulated time elapse.
     */
    RunResult run(Tick max_ticks = 2'000'000'000ULL);

    /** Discard completed tasks (e.g. between measurement phases). */
    void reapTasks();

    /** @} */

    /**
     * Multi-line human-readable summary of the configuration and of
     * every statistics domain: network, memory modules, caches, and
     * protocol counters.
     */
    std::string report() const;

  private:
    /** Periodic reservation clearing (MachineConfig::spurious_resv_period). */
    void scheduleSpuriousInvalidation();

    /** Periodic watchdog age scan (WatchdogConfig::max_txn_age). */
    void scheduleWatchdogScan();

    /** Populate the stats registry with per-node and global entries. */
    void buildRegistry();

    /** Register the machine-wide telemetry series (telemetry on only). */
    void registerTelemetrySeries();

    /**
     * Re-derive the adaptive credit threshold from the retained
     * serve_queue_depth gauge windows (credit_threshold=auto only).
     * Called at every telemetry window boundary, after sampling, so the
     * just-closed window participates: threshold = max(2, 2 * ceil(mean
     * of retained per-window machine-wide depths)).
     */
    void updateCreditThreshold();

    Config _cfg;
    EventQueue _eq;
    Mesh _mesh;
    BackingStore _store;
    std::vector<MemModule> _mems;
    std::vector<Directory> _dirs;
    std::vector<std::unique_ptr<Controller>> _ctrls;
    std::vector<std::unique_ptr<Proc>> _procs;
    /** Per-node protocol stats; sized once, addresses stable. */
    std::vector<SysStats> _node_stats;
    StatsRegistry _registry;
    Tracer _tracer;
    TxnTracer _txns;
    /**
     * Optional subsystems: each is built only when its Config section
     * turns it on and stays null otherwise (see the accessors).
     */
    std::unique_ptr<FaultPlan> _faults;
    std::unique_ptr<Watchdog> _watchdog;
    std::unique_ptr<Recovery> _recovery;
    std::unique_ptr<TimeSeries> _telemetry;
    std::unique_ptr<LineProfiler> _line_prof;
    std::unique_ptr<AdmissionQueues> _admission;
    /** Per-home service queues; sized only when serve.enabled. */
    std::vector<HomeQueue> _home_queues;
    ServeStats _serve_stats;
    /** Live credit threshold (serve.credit_threshold=auto). */
    int _credit_threshold = 0;
    bool _spin_elision = false;
    SharingTracker _sharing;
    Rng _rng;

    std::vector<Task> _tasks;
    Addr _next_alloc = BLOCK_BYTES; ///< address 0 reserved

    /** Registered sync blocks (block base addresses). */
    std::unordered_set<Addr> _sync_blocks;
};

} // namespace dsm

#endif // DSM_CPU_SYSTEM_HH
