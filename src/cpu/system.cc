#include "cpu/system.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

System::System(const Config &cfg)
    : _cfg(cfg),
      _eq(),
      _mesh(_eq, _cfg.machine),
      _rng(cfg.machine.seed)
{
    std::string cfg_err = _cfg.validate();
    if (!cfg_err.empty())
        dsm_fatal("invalid configuration: %s", cfg_err.c_str());
    int n = _cfg.machine.num_procs;
    _mems.reserve(n);
    _dirs.resize(n);
    _node_stats.resize(n);
    for (int i = 0; i < n; ++i)
        _mems.emplace_back(_cfg.machine.mem_service_time);
    for (int i = 0; i < n; ++i) {
        _ctrls.push_back(std::make_unique<Controller>(*this, i));
        _procs.push_back(std::make_unique<Proc>(*this, i));
    }
    for (int i = 0; i < n; ++i) {
        Controller *c = _ctrls[i].get();
        _mesh.setHandler(i, [c](const Msg &m) { c->handleMsg(m); });
    }
    _tracer.configure(_cfg.trace);
    _mesh.setTracer(&_tracer);
    _txns.configure(_cfg.txn_trace, n);
    _mesh.setTxnTracer(&_txns);
    if (_cfg.faults.enabled) {
        _faults = std::make_unique<FaultPlan>(_cfg.faults, _cfg.machine.seed,
                                              _cfg.machine);
        _mesh.setFaults(_faults.get());
    }
    if (_cfg.faults.recoveryEnabled()) {
        _recovery = std::make_unique<Recovery>(*this, _mesh);
        _mesh.setRecovery(_recovery.get(), _cfg.faults.quarantine_k,
                          _cfg.faults.quarantine_window);
    }
    if (_cfg.watchdog.enabled)
        _watchdog = std::make_unique<Watchdog>(_cfg.watchdog);
    if (_cfg.openloop.enabled)
        _admission = std::make_unique<AdmissionQueues>(_cfg.openloop, n);
    if (_cfg.serve.enabled) {
        _home_queues.reserve(n);
        for (int i = 0; i < n; ++i)
            _home_queues.emplace_back(_cfg.serve.age_limit);
    }
    _credit_threshold = _cfg.serve.credit_threshold;
    if (_cfg.telemetry.enabled) {
        _telemetry = std::make_unique<TimeSeries>(_cfg.telemetry);
        _line_prof = std::make_unique<LineProfiler>();
        _mesh.enableLinkCounters();
        registerTelemetrySeries();
        if (_cfg.serve.credit_auto) {
            // serve.credit_threshold=auto: re-derive the backpressure
            // threshold from the depth series at each window boundary.
            _eq.setSampler(_cfg.telemetry.window, [this](Tick t) {
                _telemetry->sample(t);
                updateCreditThreshold();
            });
        } else {
            _eq.setSampler(_cfg.telemetry.window,
                           [this](Tick t) { _telemetry->sample(t); });
        }
    }
    _spin_elision = _cfg.machine.spin_elision && !_cfg.trace.enabled &&
                    !_cfg.txn_trace.enabled && !_faults && !_recovery &&
                    !_watchdog;
    buildRegistry();
    if (_cfg.machine.spurious_resv_period > 0)
        scheduleSpuriousInvalidation();
    if (_watchdog && _cfg.watchdog.max_txn_age > 0)
        scheduleWatchdogScan();
}

void
System::registerTelemetrySeries()
{
    // Machine-wide series, sampled at window boundaries by the event
    // queue. Getters that sum per-node counters are O(nodes) per
    // window — off the per-event hot path entirely.
    TimeSeries &ts = *_telemetry;
    ts.addDelta("events", [this] { return _eq.eventsExecuted(); });
    ts.addDelta("ops", [this] {
        std::uint64_t v = 0;
        for (const auto &p : _procs)
            v += p->opsIssued();
        return v;
    });
    const MeshStats &ms = _mesh.stats();
    ts.addDelta("messages", [&ms] { return ms.messages; });
    ts.addDelta("flits", [&ms] { return ms.flits; });
    ts.addDelta("nacks", [this] {
        std::uint64_t v = 0;
        for (const SysStats &s : _node_stats)
            v += s.nacks;
        return v;
    });
    ts.addDelta("retries", [this] {
        std::uint64_t v = 0;
        for (const SysStats &s : _node_stats)
            v += s.retries;
        return v;
    });
    ts.addDelta("invalidations", [this] {
        std::uint64_t v = 0;
        for (const SysStats &s : _node_stats)
            v += s.invalidations;
        return v;
    });
    ts.addDelta("mem_queue_cycles", [this] {
        std::uint64_t v = 0;
        for (const MemModule &m : _mems)
            v += m.queueCycles();
        return v;
    });
    // Directory/memory backlog: cycles of already-reserved service
    // time still ahead of the clock, summed and worst-node.
    ts.addGauge("mem_backlog", [this] {
        std::uint64_t v = 0;
        Tick t = _eq.now();
        for (const MemModule &m : _mems)
            if (m.freeAt() > t)
                v += m.freeAt() - t;
        return v;
    });
    ts.addGauge("mem_backlog_max", [this] {
        std::uint64_t v = 0;
        Tick t = _eq.now();
        for (const MemModule &m : _mems)
            if (m.freeAt() > t && m.freeAt() - t > v)
                v = m.freeAt() - t;
        return v;
    });
    if (_recovery) {
        const Recovery::Counters &rc = _recovery->counters();
        ts.addDelta("recovery_drops", [&rc] { return rc.drops; });
        ts.addDelta("recovery_retransmits",
                    [&rc] { return rc.retransmits; });
    }
    if (_cfg.serve.credit_auto) {
        // Home-queue depth series feeding the adaptive credit threshold.
        // Registered only under credit_threshold=auto so fixed-threshold
        // serve runs keep their exact telemetry shape.
        ts.addGauge("serve_queue_depth", [this] {
            std::uint64_t v = 0;
            for (const HomeQueue &q : _home_queues)
                v += q.depth();
            return v;
        });
    }
    if (_admission) {
        const OpenLoopStats &os = _admission->stats();
        ts.addDelta("openloop_admitted", [&os] { return os.admitted; });
        ts.addDelta("openloop_rejected", [&os] { return os.rejected; });
        ts.addDelta("openloop_completed", [&os] { return os.completed; });
        ts.addGauge("openloop_queue_depth", [this] {
            std::uint64_t v = 0;
            for (int i = 0; i < numProcs(); ++i)
                v += _admission->depth(i);
            return v;
        });
    }
}

void
System::updateCreditThreshold()
{
    std::vector<std::uint64_t> v =
        _telemetry->seriesValues("serve_queue_depth");
    if (v.empty())
        return;
    std::uint64_t sum = 0;
    for (std::uint64_t x : v)
        sum += x;
    std::uint64_t mean_ceil =
        (sum + v.size() - 1) / static_cast<std::uint64_t>(v.size());
    std::uint64_t threshold = 2 * mean_ceil;
    if (threshold < 2)
        threshold = 2;
    _credit_threshold = static_cast<int>(threshold);
}

void
System::buildRegistry()
{
    // Global simulation and network counters.
    _registry.addCounter("sim.ticks", [this] { return _eq.now(); });
    _registry.addCounter("sim.events",
                         [this] { return _eq.eventsExecuted(); });
    const MeshStats &ms = _mesh.stats();
    _registry.addCounter("net.messages", &ms.messages);
    _registry.addCounter("net.flits", &ms.flits);
    _registry.addCounter("net.local", &ms.local);
    _registry.addCounter("net.hop_sum", &ms.hop_sum);

    // Transaction-tracer attribution: global (not per-node), registered
    // only when enabled so untraced runs keep their exact JSON shape.
    if (_cfg.txn_trace.enabled) {
        _registry.addCounter("txn.completed",
                             [this] { return _txns.completed(); });
        _registry.addCounter("txn.records_kept", [this] {
            return static_cast<std::uint64_t>(_txns.records().size());
        });
        _registry.addCounter("txn.records_dropped", _txns.droppedCounter());
        _registry.addCounter("txn.phase_sum_mismatches",
                             _txns.mismatchCounter());
        _registry.addCounter("txn.chain_divergences",
                             _txns.divergenceCounter());
        const PhaseAttribution &at = _txns.attribution();
        _registry.addHistogram("txn.retries", at.retriesHist());
        _registry.addHistogram("txn.fanout", at.fanoutHist());
        _registry.addHistogram("txn.observed_chain", at.chainHist());
        // Tail attribution scalars; the full conditional breakdown is
        // exported via PhaseAttribution::tailJson() (telemetry tail
        // section and bench rows). Getters are lazy: the cuts are only
        // computed when the registry is rendered or snapshotted.
        _registry.addCounter("txn.tail.records", [this] {
            return _txns.attribution().tailRecords();
        });
        _registry.addCounter("txn.tail.dropped", [this] {
            return _txns.attribution().tailDropped();
        });
        _registry.addCounter("txn.tail.p90_threshold", [this] {
            return static_cast<std::uint64_t>(
                _txns.attribution().tailCut(0.90).threshold);
        });
        _registry.addCounter("txn.tail.p99_threshold", [this] {
            return static_cast<std::uint64_t>(
                _txns.attribution().tailCut(0.99).threshold);
        });
        for (int op = 0; op < NUM_ATOMIC_OPS; ++op) {
            std::string base = std::string("txn.ops.") +
                               toString(static_cast<AtomicOp>(op));
            _registry.addLatency(base + ".total", at.totalStat(op));
            for (int ph = 0; ph < NUM_TXN_PHASES; ++ph)
                _registry.addLatency(
                    base + ".phases." +
                        toString(static_cast<TxnPhase>(ph)),
                    at.phaseStat(op, ph));
        }
    }

    // Fault-injection and watchdog counters: registered only when the
    // feature is on, so fault-free runs keep their exact JSON shape.
    if (_faults) {
        const FaultPlan::Counters &fc = _faults->counters();
        _registry.addCounter("fault.jitter_applied", &fc.jitter_applied);
        _registry.addCounter("fault.jitter_cycles", &fc.jitter_cycles);
        _registry.addCounter("fault.resv_drops", &fc.resv_drops);
        _registry.addCounter("fault.forced_evictions",
                             &fc.forced_evictions);
        _registry.addCounter("fault.nacks_injected", &fc.nacks_injected);
        // Loss counters only when loss is armed, so legacy fault runs
        // keep their exact JSON shape.
        if (_cfg.faults.lossEnabled()) {
            _registry.addCounter("fault.msg_drops", &fc.msg_drops);
            _registry.addCounter("fault.flaky_drops", &fc.flaky_drops);
        }
        // Chaos counters only when a chaos axis is armed, so loss-only
        // fault runs keep their exact JSON shape.
        if (_cfg.faults.chaosEnabled()) {
            _registry.addCounter("fault.msg_reorders", &fc.msg_reorders);
            _registry.addCounter("fault.msg_dups", &fc.msg_dups);
            _registry.addCounter("fault.msg_corruptions",
                                 &fc.msg_corruptions);
        }
    }
    if (_recovery) {
        const Recovery::Counters &rc = _recovery->counters();
        _registry.addCounter("recovery.drops", &rc.drops);
        _registry.addCounter("recovery.req_drops", &rc.req_drops);
        _registry.addCounter("recovery.reply_drops", &rc.reply_drops);
        _registry.addCounter("recovery.retransmit_covered",
                             &rc.retransmit_covered);
        _registry.addCounter("recovery.quarantine_covered",
                             &rc.quarantine_covered);
        _registry.addCounter("recovery.pending_drops",
                             [this] { return _recovery->pendingDrops(); });
        _registry.addCounter("recovery.retransmits", &rc.retransmits);
        _registry.addCounter("recovery.stale_replies", &rc.stale_replies);
        _registry.addCounter("recovery.nacks_lost", &rc.nacks_lost);
        _registry.addCounter("recovery.nacks_stale", &rc.nacks_stale);
        _registry.addCounter("recovery.nacks_replayed",
                             &rc.nacks_replayed);
        _registry.addCounter("recovery.dup_requests", &rc.dup_requests);
        _registry.addCounter("recovery.dup_replayed", &rc.dup_replayed);
        _registry.addCounter("recovery.dup_reprocessed",
                             &rc.dup_reprocessed);
        _registry.addCounter("recovery.dup_in_progress",
                             &rc.dup_in_progress);
        _registry.addCounter("recovery.dup_stale", &rc.dup_stale);
        _registry.addCounter("recovery.links_quarantined",
                             &rc.links_quarantined);
        // Faulty-channel ledger: registered only when a chaos axis is
        // armed, so loss-only recovery runs keep their exact JSON shape.
        if (_cfg.faults.chaosEnabled()) {
            _registry.addCounter("recovery.corrupt_detected",
                                 &rc.corrupt_detected);
            _registry.addCounter("recovery.dups_absorbed",
                                 &rc.dups_absorbed);
            _registry.addCounter("recovery.reorders_delivered",
                                 &rc.reorders_delivered);
        }
    }
    if (_watchdog)
        _registry.addCounter("fault.watchdog_trips",
                             _watchdog->tripsCounter());

    // Open-loop serving counters: registered only when open-loop
    // arrivals are on, so closed-loop runs keep their exact JSON shape.
    if (_admission) {
        const OpenLoopStats &os = _admission->stats();
        _registry.addCounter("openloop.offered", &os.offered);
        _registry.addCounter("openloop.admitted", &os.admitted);
        _registry.addCounter("openloop.rejected", &os.rejected);
        // Edge-shed attribution exists only when the serving layer can
        // throttle; gate it so serve-off runs keep their JSON shape.
        if (_cfg.serve.enabled)
            _registry.addCounter("openloop.rejected_throttled",
                                 &os.rejected_throttled);
        _registry.addCounter("openloop.completed", &os.completed);
        _registry.addCounter("openloop.slo_violations",
                             &os.slo_violations);
        _registry.addHistogram("openloop.depth_on_arrival",
                               &os.depth_on_arrival);
        _registry.addLatency("openloop.admission_wait",
                             &os.admission_wait);
        _registry.addLatency("openloop.sojourn", &os.sojourn);
    }

    // Overload-protection serving counters: registered only when the
    // serving layer is on, so legacy runs keep their exact JSON shape.
    if (_cfg.serve.enabled) {
        _registry.addCounter("serve.slots", &_serve_stats.slots);
        _registry.addCounter("serve.served", &_serve_stats.served);
        _registry.addCounter("serve.hi_served", &_serve_stats.hi_served);
        _registry.addCounter("serve.lo_served", &_serve_stats.lo_served);
        _registry.addCounter("serve.aged", &_serve_stats.aged);
        _registry.addCounter("serve.batches", &_serve_stats.batches);
        _registry.addCounter("serve.coalesced", &_serve_stats.coalesced);
        _registry.addCounter("serve.throttle_events",
                             &_serve_stats.throttle_events);
        _registry.addCounter("serve.throttle_cycles",
                             &_serve_stats.throttle_cycles);
        _registry.addCounter("serve.backoff_capped",
                             &_serve_stats.backoff_capped);
    }

    // Telemetry accounting: registered only when telemetry is on, so
    // untelemetered runs keep their exact JSON shape.
    if (_telemetry) {
        _registry.addCounter("timeseries.windows", [this] {
            return _telemetry->windowsSampled();
        });
        _registry.addCounter("timeseries.windows_evicted", [this] {
            return _telemetry->windowsEvicted();
        });
        _registry.addCounter("timeseries.series", [this] {
            return static_cast<std::uint64_t>(_telemetry->numSeries());
        });
        _registry.addCounter("timeseries.lines_tracked", [this] {
            return _line_prof->linesTracked();
        });
    }

    // Event-trace ring accounting: the ring silently overwrites its
    // oldest records, so surface how many were lost. Registered only
    // when tracing is on (same JSON-shape discipline as above).
    if (_cfg.trace.enabled) {
        _registry.addCounter("trace.recorded",
                             [this] { return _tracer.totalRecorded(); });
        _registry.addCounter("trace.dropped",
                             [this] { return _tracer.dropped(); });
    }

    // Per-node component counters. All pointed-to storage lives in
    // containers sized once by the constructor, so addresses are stable.
    for (int i = 0; i < numProcs(); ++i) {
        std::string p = csprintf("node%d.", i);

        const SysStats &st = _node_stats[i];
        _registry.addCounter(p + "proto.nacks", &st.nacks);
        _registry.addCounter(p + "proto.retries", &st.retries);
        _registry.addCounter(p + "proto.invalidations", &st.invalidations);
        _registry.addCounter(p + "proto.updates", &st.updates);
        _registry.addCounter(p + "proto.writebacks", &st.writebacks);
        _registry.addCounter(p + "proto.drop_notifies", &st.drop_notifies);
        _registry.addCounter(p + "proto.sc_successes", &st.sc_successes);
        _registry.addCounter(p + "proto.sc_failures", &st.sc_failures);
        _registry.addCounter(p + "proto.cas_successes", &st.cas_successes);
        _registry.addCounter(p + "proto.cas_failures", &st.cas_failures);
        _registry.addHistogram(p + "proto.chain_length", &st.chain_length);
        for (int op = 0; op < NUM_ATOMIC_OPS; ++op)
            _registry.addLatency(
                p + "proto.ops." + toString(static_cast<AtomicOp>(op)),
                &st.op_latency[op]);

        const CacheStats &cs = _ctrls[i]->cache().stats();
        _registry.addCounter(p + "cache.hits", &cs.hits);
        _registry.addCounter(p + "cache.misses", &cs.misses);
        _registry.addCounter(p + "cache.evictions", &cs.evictions);
        _registry.addCounter(p + "cache.invalidations_received",
                             &cs.invalidations_received);

        const MemModule &mm = _mems[i];
        _registry.addCounter(p + "mem.accesses",
                             [&mm] { return mm.accesses(); });
        _registry.addCounter(p + "mem.queue_cycles",
                             [&mm] { return mm.queueCycles(); });
        _registry.addCounter(p + "mem.busy_cycles",
                             [&mm] { return mm.busyCycles(); });
        _registry.addHistogram(p + "mem.queue_wait", &mm.queueWait());

        _registry.addCounter(p + "dir.transitions",
                             &_dirs[i].transitions());

        _registry.addCounter(p + "net.inj_msgs", &_mesh.injMsgs(i));
        _registry.addCounter(p + "net.ej_msgs", &_mesh.ejMsgs(i));
        _registry.addCounter(p + "net.inj_flits", &_mesh.injFlits(i));

        const Proc &pr = *_procs[i];
        _registry.addCounter(p + "proc.ops_issued",
                             [&pr] { return pr.opsIssued(); });
    }
}

void
System::scheduleSpuriousInvalidation()
{
    _eq.scheduleIn(_cfg.machine.spurious_resv_period, [this] {
        for (auto &c : _ctrls)
            c->cache().clearReservation();
        // Keep firing only while work remains; otherwise the event
        // queue could never drain.
        if (tasksPending() > 0)
            scheduleSpuriousInvalidation();
    });
}

void
System::scheduleWatchdogScan()
{
    _eq.scheduleIn(_cfg.watchdog.scan_period, [this] {
        _watchdog->scan(*this);
        // Stop re-arming once tripped or idle so the queue can drain.
        if (tasksPending() > 0 && !_watchdog->tripped())
            scheduleWatchdogScan();
    });
}

Addr
System::alloc(std::size_t bytes, std::size_t align)
{
    dsm_assert(align > 0 && (align & (align - 1)) == 0,
               "alignment must be a power of two");
    Addr a = (_next_alloc + align - 1) & ~static_cast<Addr>(align - 1);
    _next_alloc = a + bytes;
    return a;
}

Addr
System::allocSync()
{
    Addr a = alloc(BLOCK_BYTES, BLOCK_BYTES);
    markSync(a);
    return a;
}

Addr
System::allocAt(NodeId home, std::size_t bytes)
{
    dsm_assert(home >= 0 && home < numProcs(), "bad home node %d", home);
    // Advance to the next block whose home is the requested node.
    Addr a = (_next_alloc + BLOCK_BYTES - 1) &
             ~static_cast<Addr>(BLOCK_BYTES - 1);
    while (homeOf(a) != home)
        a += BLOCK_BYTES;
    _next_alloc = a + bytes;
    return a;
}

Addr
System::allocSyncAt(NodeId home)
{
    Addr a = allocAt(home, BLOCK_BYTES);
    markSync(a);
    return a;
}

Word
System::debugRead(Addr a) const
{
    for (const auto &c : _ctrls) {
        const CacheLine *line = c->cache().peek(a);
        if (line != nullptr && line->state == LineState::EXCLUSIVE)
            return line->readWord(a);
    }
    return _store.readWord(a);
}

void
System::spawn(Task t)
{
    dsm_assert(!t.done(), "spawning a completed task");
    std::coroutine_handle<> h = t.handle();
    _tasks.push_back(std::move(t));
    _eq.schedule(_eq.now(), [h] { h.resume(); });
}

int
System::tasksPending() const
{
    int n = 0;
    for (const Task &t : _tasks)
        if (!t.done())
            ++n;
    return n;
}

void
System::reapTasks()
{
    std::erase_if(_tasks, [](const Task &t) { return t.done(); });
}

std::string
System::report() const
{
    std::string out;
    out += csprintf("machine: %d procs (%dx%d mesh), %u-set %u-way "
                    "caches, mem=%llu cy, hop=%llu cy\n",
                    _cfg.machine.num_procs, _cfg.machine.mesh_x,
                    _cfg.machine.mesh_y, _cfg.machine.cache_sets,
                    _cfg.machine.cache_ways,
                    (unsigned long long)_cfg.machine.mem_service_time,
                    (unsigned long long)_cfg.machine.hop_latency);
    out += csprintf("sync implementation: %s (policy %s)\n",
                    _cfg.sync.label().c_str(),
                    toString(_cfg.sync.policy));
    out += csprintf("time: %llu cycles, %llu events (%llu elided)\n",
                    (unsigned long long)_eq.now(),
                    (unsigned long long)_eq.eventsExecuted(),
                    (unsigned long long)_eq.eventsElided());

    const MeshStats &ms = _mesh.stats();
    out += csprintf("network: %llu messages (%llu flits, %.1f avg hops)"
                    ", %llu local deliveries\n",
                    (unsigned long long)ms.messages,
                    (unsigned long long)ms.flits,
                    ms.messages ? static_cast<double>(ms.hop_sum) /
                                      static_cast<double>(ms.messages)
                                : 0.0,
                    (unsigned long long)ms.local);

    std::uint64_t mem_acc = 0, mem_queue = 0;
    for (const MemModule &m : _mems) {
        mem_acc += m.accesses();
        mem_queue += m.queueCycles();
    }
    out += csprintf("memory: %llu accesses, %llu queueing cycles\n",
                    (unsigned long long)mem_acc,
                    (unsigned long long)mem_queue);

    std::uint64_t hits = 0, misses = 0, evictions = 0, invs = 0;
    for (const auto &c : _ctrls) {
        const CacheStats &cs = c->cache().stats();
        hits += cs.hits;
        misses += cs.misses;
        evictions += cs.evictions;
        invs += cs.invalidations_received;
    }
    out += csprintf("caches: %llu hits, %llu misses, %llu evictions, "
                    "%llu invalidations received\n",
                    (unsigned long long)hits, (unsigned long long)misses,
                    (unsigned long long)evictions,
                    (unsigned long long)invs);
    out += stats().report();
    return out;
}

std::string
System::telemetryJson()
{
    dsm_assert(_telemetry != nullptr, "telemetryJson() with telemetry off");
    _telemetry->finalize(_eq.now());
    JsonWriter w;
    w.beginObject();
    w.key("timeseries");
    _telemetry->writeJson(w);
    w.kv("lines_tracked", _line_prof->linesTracked());
    w.key("hot_lines");
    w.beginArray();
    for (const LineProfiler::Ranked &r :
         _line_prof->ranked(_cfg.telemetry.hot_lines)) {
        w.beginObject();
        w.kv("addr", static_cast<std::uint64_t>(r.addr));
        w.kv("home", static_cast<int>(homeOf(r.addr)));
        w.kv("sync", isSync(r.addr));
        w.kv("requests", r.prof.requests);
        w.kv("service_cycles", r.prof.service_cycles);
        w.kv("nacks", r.prof.nacks);
        w.kv("migrations", r.prof.migrations);
        w.kv("sharer_joins", r.prof.sharer_joins);
        w.kv("invalidations", r.prof.invalidations);
        w.kv("score", r.prof.score());
        w.endObject();
    }
    w.endArray();
    // Cumulative offered load per directed link, row-major
    // (src * nodes + dst) — the mesh heatmap of the HTML report.
    w.key("links");
    w.beginObject();
    w.kv("nodes", numProcs());
    w.kv("mesh_x", _cfg.machine.mesh_x);
    w.kv("mesh_y", _cfg.machine.mesh_y);
    w.key("flits");
    w.beginArray();
    for (int a = 0; a < numProcs(); ++a)
        for (int b = 0; b < numProcs(); ++b)
            w.value(_mesh.linkFlits(a, b));
    w.endArray();
    w.endObject();
    // Tail-latency section: conditional p90/p99 phase attribution and
    // the slowest-transaction exemplars, plus the open-loop serving
    // counters when an arrival process drove the run. Present only
    // when transaction tracing is on (the attribution source).
    if (_cfg.txn_trace.enabled) {
        w.key("tail");
        w.beginObject();
        w.key("attribution");
        w.raw(_txns.attribution().tailJson());
        w.key("exemplars");
        w.raw(_txns.exemplarsJson());
        if (_admission) {
            const OpenLoopStats &os = _admission->stats();
            w.key("openloop");
            w.beginObject();
            w.kv("offered", os.offered);
            w.kv("admitted", os.admitted);
            w.kv("rejected", os.rejected);
            w.kv("completed", os.completed);
            w.kv("slo_cycles",
                 static_cast<std::uint64_t>(_cfg.openloop.slo_cycles));
            w.kv("slo_violations", os.slo_violations);
            w.key("sojourn");
            w.beginObject();
            w.kv("count", os.sojourn.count);
            w.kv("mean", os.sojourn.mean());
            w.kv("p50", static_cast<std::uint64_t>(os.sojourn.p50()));
            w.kv("p99", static_cast<std::uint64_t>(os.sojourn.p99()));
            w.kv("p999", static_cast<std::uint64_t>(os.sojourn.p999()));
            w.kv("max", static_cast<std::uint64_t>(os.sojourn.max));
            w.endObject();
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    return w.str();
}

RunResult
System::run(Tick max_ticks)
{
    RunResult r;
    Tick deadline = _eq.now() + max_ticks;
    while (tasksPending() > 0) {
        if (_watchdog && _watchdog->tripped()) {
            r.livelocked = true;
            r.diagnosis = _watchdog->diagnosis();
            break;
        }
        if (_eq.empty()) {
            r.deadlocked = true;
            r.diagnosis = "deadlock: event queue drained with tasks "
                          "still blocked\n" +
                          Watchdog::blockedTxnDump(*this);
            break;
        }
        if (_eq.now() > deadline)
            break;
        // Step in small chunks so the (O(tasks)) pending check does not
        // dominate event processing. Chunks holding only elided spin
        // iterations run no task code, so only the deadline check can
        // change across them: skip those in bulk.
        _eq.run(64);
        _eq.skipElided(64, deadline);
    }
    // Processors still parked at the deadline owe their elided hits.
    _eq.flushElided();
    r.completed = tasksPending() == 0;
    if (r.completed) {
        // Quiesce: drain in-flight protocol traffic (write-backs,
        // acknowledgements) so memory reaches its final state.
        _eq.run();
    }
    r.end_tick = _eq.now();
    r.events = _eq.eventsExecuted();
    return r;
}

} // namespace dsm
