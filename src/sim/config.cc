#include "sim/config.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace dsm {

const char *
toString(SyncPolicy p)
{
    switch (p) {
      case SyncPolicy::INV: return "INV";
      case SyncPolicy::UPD: return "UPD";
      case SyncPolicy::UNC: return "UNC";
    }
    return "?";
}

const char *
toString(CasVariant v)
{
    switch (v) {
      case CasVariant::PLAIN: return "INV";
      case CasVariant::DENY: return "INVd";
      case CasVariant::SHARE: return "INVs";
    }
    return "?";
}

const char *
toString(Primitive p)
{
    switch (p) {
      case Primitive::FAP: return "FAP";
      case Primitive::LLSC: return "LLSC";
      case Primitive::CAS: return "CAS";
    }
    return "?";
}

std::string
SyncConfig::label() const
{
    std::string s = toString(policy);
    if (policy == SyncPolicy::INV && cas_variant != CasVariant::PLAIN)
        s = toString(cas_variant);
    if (use_load_exclusive)
        s += "+lx";
    if (use_drop_copy)
        s += "+dc";
    return s;
}

std::string
parseSpecItems(
    const std::string &spec, const char *what,
    const std::function<bool(const std::string &key, double v)> &set,
    const std::function<bool(const std::string &key,
                             const std::string &val)> &word)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return csprintf("%s spec item '%s' is not key=value", what,
                            item.c_str());
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        if (word && word(key, val))
            continue;
        char *end = nullptr;
        double d = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0')
            return csprintf("%s spec value '%s' for '%s' is not a number",
                            what, val.c_str(), key.c_str());
        if (!set(key, d))
            return csprintf("unknown %s spec key '%s'", what, key.c_str());
    }
    return "";
}

bool
parseSpecEnv(const char *var,
             const std::function<std::string(const std::string &)> &parse)
{
    const char *spec = std::getenv(var);
    if (spec == nullptr || *spec == '\0' || std::string(spec) == "0")
        return false;
    std::string err = parse(spec);
    if (!err.empty())
        dsm_fatal("%s: %s", var, err.c_str());
    return true;
}

std::string
OpenLoopConfig::parse(const std::string &spec)
{
    if (spec == "1" || spec == "on" || spec == "default") {
        // A mid-load default: well below saturation for every impl at
        // the 16-proc sweep shape, so smoke runs finish quickly.
        *this = OpenLoopConfig();
        enabled = true;
        rate_ppc = 0.001;
        return "";
    }

    OpenLoopConfig out;
    out.enabled = true;
    std::string err = parseSpecItems(
        spec, "openloop", [&](const std::string &key, double d) {
            if (key == "rate")
                out.rate_ppc = d;
            else if (key == "burst")
                out.burst = static_cast<int>(d);
            else if (key == "queue_cap")
                out.queue_cap = static_cast<int>(d);
            else if (key == "slo_cycles")
                out.slo_cycles = static_cast<Tick>(d);
            else if (key == "ops_per_proc")
                out.ops_per_proc = static_cast<int>(d);
            else
                return false;
            return true;
        });
    if (!err.empty())
        return err;
    *this = out;
    return "";
}

std::string
OpenLoopConfig::summary() const
{
    return csprintf("rate=%g,burst=%d,queue_cap=%d,slo_cycles=%llu,"
                    "ops_per_proc=%d",
                    rate_ppc, burst, queue_cap,
                    (unsigned long long)slo_cycles, ops_per_proc);
}

OpenLoopConfig
openLoopConfigFromEnv()
{
    OpenLoopConfig ol;
    parseSpecEnv("DSM_OPENLOOP",
                 [&](const std::string &spec) { return ol.parse(spec); });
    return ol;
}

std::string
ServeConfig::parse(const std::string &spec)
{
    if (spec == "1" || spec == "on" || spec == "default") {
        *this = ServeConfig();
        enabled = true;
        return "";
    }

    ServeConfig out;
    out.enabled = true;
    std::string err = parseSpecItems(
        spec, "serve",
        [&](const std::string &key, double d) {
            if (key == "combining")
                out.combining = d != 0.0;
            else if (key == "combine_limit")
                out.combine_limit = static_cast<int>(d);
            else if (key == "backpressure")
                out.backpressure = d != 0.0;
            else if (key == "credit_threshold")
                out.credit_threshold = static_cast<int>(d);
            else if (key == "priority")
                out.priority = d != 0.0;
            else if (key == "age_limit")
                out.age_limit = static_cast<Tick>(d);
            else if (key == "nack_backoff")
                out.nack_backoff = d != 0.0;
            else if (key == "backoff_cap")
                out.backoff_cap = static_cast<int>(d);
            else
                return false;
            return true;
        },
        [&](const std::string &key, const std::string &val) {
            if (key != "credit_threshold" || val != "auto")
                return false;
            out.credit_auto = true;
            return true;
        });
    if (!err.empty())
        return err;
    *this = out;
    return "";
}

std::string
ServeConfig::summary() const
{
    std::string threshold = credit_auto
                                ? "auto"
                                : csprintf("%d", credit_threshold);
    return csprintf("combining=%d,combine_limit=%d,backpressure=%d,"
                    "credit_threshold=%s,priority=%d,age_limit=%llu,"
                    "nack_backoff=%d,backoff_cap=%d",
                    combining ? 1 : 0, combine_limit,
                    backpressure ? 1 : 0, threshold.c_str(),
                    priority ? 1 : 0, (unsigned long long)age_limit,
                    nack_backoff ? 1 : 0, backoff_cap);
}

ServeConfig
serveConfigFromEnv()
{
    ServeConfig sv;
    parseSpecEnv("DSM_SERVE",
                 [&](const std::string &spec) { return sv.parse(spec); });
    return sv;
}

void
MachineConfig::validate() const
{
    Config cfg;
    cfg.machine = *this;
    std::string err = cfg.validate();
    if (!err.empty())
        dsm_fatal("%s", err.c_str());
}

std::string
Config::validate() const
{
    const MachineConfig &m = machine;
    if (m.num_procs < 1 || m.num_procs > 64)
        return csprintf("num_procs must be in [1, 64], got %d",
                        m.num_procs);
    if (m.mesh_x < 1 || m.mesh_y < 1)
        return csprintf("mesh dimensions must be positive, got %dx%d",
                        m.mesh_x, m.mesh_y);
    if (m.mesh_x * m.mesh_y != m.num_procs)
        return csprintf("mesh %dx%d does not cover %d procs",
                        m.mesh_x, m.mesh_y, m.num_procs);
    if (m.cache_sets == 0 || (m.cache_sets & (m.cache_sets - 1)) != 0)
        return csprintf("cache_sets must be a nonzero power of two, "
                        "got %u", m.cache_sets);
    if (m.cache_ways == 0)
        return "cache_ways must be nonzero";
    if (m.cache_hit_latency == 0)
        return "cache_hit_latency must be nonzero";
    if (m.cache_access_latency == 0)
        return "cache_access_latency must be nonzero";
    if (m.mem_service_time == 0)
        return "mem_service_time must be nonzero";
    // hop_latency == 0 is allowed: it models contention-free routing
    // and is exercised by the timing-parameter sweeps.
    if (m.flit_latency == 0)
        return "flit_latency must be nonzero";
    if (m.local_latency == 0)
        return "local_latency must be nonzero";
    if (m.retry_delay == 0)
        return "retry_delay must be nonzero";
    if (m.flit_bytes == 0)
        return "flit_bytes must be nonzero";
    if (m.retry_jitter == 0)
        return "retry_jitter must be at least 1";
    if (m.max_memory_reservations < 0)
        return csprintf("max_memory_reservations must be >= 0, got %d",
                        m.max_memory_reservations);
    if (trace.enabled && trace.capacity == 0)
        return "trace.capacity must be nonzero when tracing is enabled";
    if (txn_trace.enabled && txn_trace.capacity == 0)
        return "txn_trace.capacity must be nonzero when transaction "
               "tracing is enabled";
    if (telemetry.enabled && telemetry.window == 0)
        return "telemetry.window must be nonzero when telemetry is "
               "enabled";
    if (telemetry.enabled && telemetry.max_windows == 0)
        return "telemetry.max_windows must be nonzero when telemetry "
               "is enabled";

    const OpenLoopConfig &ol = openloop;
    if (ol.enabled) {
        if (!(ol.rate_ppc > 0.0) || ol.rate_ppc > 1.0)
            return csprintf("openloop.rate_ppc must be in (0, 1] "
                            "arrivals/cycle/proc when open-loop "
                            "arrivals are enabled, got %g", ol.rate_ppc);
        if (ol.burst < 1 || ol.burst > 4096)
            return csprintf("openloop.burst must be in [1, 4096], "
                            "got %d", ol.burst);
        if (ol.queue_cap < 1)
            return csprintf("openloop.queue_cap must be >= 1 (a node "
                            "needs at least one admission slot), got %d",
                            ol.queue_cap);
        if (ol.ops_per_proc < 1)
            return csprintf("openloop.ops_per_proc must be >= 1, got %d",
                            ol.ops_per_proc);
    }

    const ServeConfig &sv = serve;
    if (sv.enabled) {
        if (sv.combine_limit < 2)
            return csprintf("serve.combine_limit must be >= 2 (a batch "
                            "of one is not combining), got %d",
                            sv.combine_limit);
        if (sv.credit_threshold < 1)
            return csprintf("serve.credit_threshold must be >= 1, "
                            "got %d", sv.credit_threshold);
        if (sv.priority && sv.age_limit == 0)
            return "serve.age_limit must be nonzero when "
                   "serve.priority is enabled (it is the starvation "
                   "bound, not an off switch)";
        if (sv.nack_backoff &&
            (sv.backoff_cap < 4 || sv.backoff_cap > 20))
            return csprintf("serve.backoff_cap must be in [4, 20] "
                            "(below 4 would weaken the built-in "
                            "backoff; above 20 overflows the shift), "
                            "got %d", sv.backoff_cap);
        if (sv.credit_auto && !sv.backpressure)
            return "serve.credit_threshold=auto requires "
                   "serve.backpressure (there is no threshold to adapt "
                   "otherwise)";
        if (sv.credit_auto && !telemetry.enabled)
            return "serve.credit_threshold=auto requires "
                   "telemetry.enabled (the adaptive threshold is "
                   "derived from the sampled queue-depth series)";
    }

    const FaultConfig &f = faults;
    struct { const char *name; double v; } probs[] = {
        { "faults.msg_jitter_prob", f.msg_jitter_prob },
        { "faults.resv_drop_prob", f.resv_drop_prob },
        { "faults.evict_prob", f.evict_prob },
        { "faults.nack_prob", f.nack_prob },
    };
    for (const auto &p : probs) {
        if (p.v < 0.0 || p.v > 1.0)
            return csprintf("%s must be in [0, 1], got %g", p.name, p.v);
    }
    if (f.enabled && f.msg_jitter_prob > 0.0 && f.msg_jitter_max == 0)
        return "faults.msg_jitter_max must be nonzero when "
               "faults.msg_jitter_prob > 0";
    if (f.msg_jitter_max > FAULT_JITTER_HORIZON)
        return csprintf("faults.msg_jitter_max must be <= %llu (the "
                        "event-queue jitter horizon), got %llu",
                        (unsigned long long)FAULT_JITTER_HORIZON,
                        (unsigned long long)f.msg_jitter_max);
    if (f.max_extra_nacks < 0)
        return csprintf("faults.max_extra_nacks must be >= 0, got %d",
                        f.max_extra_nacks);
    if (f.msg_drop_prob < 0.0 || f.msg_drop_prob > 1.0)
        return csprintf("faults.msg_drop_prob must be in [0, 1], got %g",
                        f.msg_drop_prob);
    if (f.flaky_drop_prob < 0.0 || f.flaky_drop_prob > 1.0)
        return csprintf("faults.flaky_drop_prob must be in [0, 1], "
                        "got %g", f.flaky_drop_prob);
    if (f.flaky_links < 0)
        return csprintf("faults.flaky_links must be >= 0, got %d",
                        f.flaky_links);
    if (f.flaky_links > 0 &&
        (f.flaky_window == 0 || f.flaky_duration == 0))
        return "faults.flaky_window and faults.flaky_duration must be "
               "nonzero when faults.flaky_links > 0";
    if (f.lossEnabled() && f.req_timeout == 0)
        return "faults.req_timeout must be nonzero when message loss "
               "(msg_drop_prob / flaky_links) is enabled; a lost "
               "message is unrecoverable without retransmission";
    if (f.quarantine_k < 0)
        return csprintf("faults.quarantine_k must be >= 0, got %d",
                        f.quarantine_k);
    if (f.quarantine_k > 0 && f.quarantine_window == 0)
        return "faults.quarantine_window must be nonzero when "
               "faults.quarantine_k > 0";
    struct { const char *name; double v; } chaos_probs[] = {
        { "faults.reorder_prob", f.reorder_prob },
        { "faults.dup_prob", f.dup_prob },
        { "faults.corrupt_prob", f.corrupt_prob },
    };
    for (const auto &p : chaos_probs) {
        if (p.v < 0.0 || p.v > 1.0)
            return csprintf("%s must be in [0, 1], got %g", p.name, p.v);
    }
    if (f.enabled && f.reorder_prob > 0.0 && f.reorder_max == 0)
        return "faults.reorder_max must be nonzero when "
               "faults.reorder_prob > 0";
    if (f.reorder_max > FAULT_JITTER_HORIZON)
        return csprintf("faults.reorder_max must be <= %llu (the "
                        "event-queue jitter horizon), got %llu",
                        (unsigned long long)FAULT_JITTER_HORIZON,
                        (unsigned long long)f.reorder_max);
    if (f.enabled && f.dup_prob > 0.0 && f.dup_delay == 0)
        return "faults.dup_delay must be nonzero when "
               "faults.dup_prob > 0 (a replay needs a delay to race "
               "its original)";
    if (f.dup_delay > FAULT_JITTER_HORIZON)
        return csprintf("faults.dup_delay must be <= %llu (the "
                        "event-queue jitter horizon), got %llu",
                        (unsigned long long)FAULT_JITTER_HORIZON,
                        (unsigned long long)f.dup_delay);
    if (f.chaosEnabled() && f.req_timeout == 0)
        return "faults.req_timeout must be nonzero when a "
               "faulty-channel axis (reorder_prob / dup_prob / "
               "corrupt_prob) is enabled; the sequence guards and the "
               "corruption-as-loss path live in the recovery layer";

    const WatchdogConfig &w = watchdog;
    if (w.max_retries < 0)
        return csprintf("watchdog.max_retries must be >= 0, got %d",
                        w.max_retries);
    if (w.enabled && w.max_retries == 0 && w.max_txn_age == 0)
        return "watchdog enabled but both max_retries and max_txn_age "
               "are 0; set at least one bound";
    if (w.max_txn_age > 0 && w.scan_period == 0)
        return "watchdog.scan_period must be nonzero when max_txn_age "
               "is set";

    // The model checker enumerates every interleaving, so its bounds
    // are hard: a 4-node or 2-line exploration would not terminate in
    // any useful time, and a loss budget above 1 squares the already
    // exponential branching.
    const McConfig &mcc = mc;
    if (mcc.nodes < 2 || mcc.nodes > 3)
        return csprintf("mc.nodes must be 2 or 3 (exhaustive "
                        "exploration is exponential in nodes), got %d",
                        mcc.nodes);
    if (mcc.lines != 1)
        return csprintf("mc.lines must be exactly 1 (the explorer "
                        "models a single synchronization line), got %d",
                        mcc.lines);
    if (mcc.ops_per_proc < 1 || mcc.ops_per_proc > 4)
        return csprintf("mc.ops_per_proc must be in [1, 4], got %d",
                        mcc.ops_per_proc);
    if (mcc.loss_budget != 0 && mcc.loss_budget != 1)
        return csprintf("mc.loss_budget must be 0 or 1 (at most one "
                        "message loss per run is explored), got %d",
                        mcc.loss_budget);
    if (mcc.reorder_budget != 0 && mcc.reorder_budget != 1)
        return csprintf("mc.reorder_budget must be 0 or 1 (at most one "
                        "reordered delivery per run is explored), "
                        "got %d", mcc.reorder_budget);
    if (mcc.dup_budget != 0 && mcc.dup_budget != 1)
        return csprintf("mc.dup_budget must be 0 or 1 (at most one "
                        "duplicated delivery per run is explored), "
                        "got %d", mcc.dup_budget);
    if (mcc.max_states == 0)
        return "mc.max_states must be nonzero (it is the exploration "
               "fuse, not an off switch)";
    if (mcc.combining && mcc.primitive != Primitive::FAP)
        return csprintf("mc.combining requires mc.primitive FAP (only "
                        "fetch&add home requests commute), got %s",
                        toString(mcc.primitive));
    return "";
}

} // namespace dsm
