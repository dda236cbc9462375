#include "sim/config.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <variant>
#include <vector>

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

namespace {

/** Read all of @p s as a T (std::from_chars: no space, no '+'). */
template <typename T>
bool
readExact(std::string_view s, T &out)
{
    T v{};
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/**
 * The spec value readers, one per field type: "" on success, else
 * what the value should have been.
 */
template <typename T>
std::string
readValue(const std::string &s, T &out)
{
    if (readExact(s, out))
        return "";
    return csprintf("an integer in [%lld, %llu]",
                    (long long)std::numeric_limits<T>::min(),
                    (unsigned long long)std::numeric_limits<T>::max());
}

std::string
readValue(const std::string &s, bool &out)
{
    if (s != "0" && s != "1")
        return "0 or 1";
    out = s == "1";
    return "";
}

std::string
readValue(const std::string &s, double &out)
{
    double v = 0.0;
    if (!readExact(s, v))
        return "a number";
    if (!std::isfinite(v))
        return "a finite number";
    out = v;
    return "";
}

/** Flags print as 0/1, integers in full. */
template <typename T>
std::string
showValue(T v)
{
    return std::to_string(v);
}

/** %g, widened only as far as reading it back needs. */
std::string
showValue(double v)
{
    std::string s;
    for (int prec = 6; prec <= 17; ++prec) {
        s = csprintf("%.*g", prec, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            break;
    }
    return s;
}

/** One key of a spec grammar: the member it sets and how it prints. */
template <typename C>
struct SpecField
{
    const char *key;
    std::variant<bool C::*, int C::*, std::uint64_t C::*, double C::*>
        member;
    /** summary() prints the key only when this holds (null: always). */
    bool (*shown)(const C &) = nullptr;
    /** A word the key also takes, and the flag the word sets. */
    const char *word = nullptr;
    bool C::*word_flag = nullptr;
};

/** One struct's spec grammar: its error noun, preset and field table. */
template <typename C>
struct SpecGrammar
{
    const char *what;
    /** The items "1", "on" and "default" stand for. */
    const char *preset;
    std::vector<SpecField<C>> fields;
};

template <typename C>
std::string
parseSpec(const SpecGrammar<C> &g, const std::string &spec, C &cfg)
{
    bool preset = spec == "1" || spec == "on" || spec == "default";
    const std::string items = preset ? g.preset : spec;
    C out;
    out.enabled = true;
    std::size_t pos = 0;
    while (pos < items.size()) {
        std::size_t comma = items.find(',', pos);
        if (comma == std::string::npos)
            comma = items.size();
        std::string item = items.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return csprintf("%s spec item '%s' is not key=value", g.what,
                            item.c_str());
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        auto f = std::find_if(
            g.fields.begin(), g.fields.end(),
            [&](const SpecField<C> &sf) { return key == sf.key; });
        if (f == g.fields.end()) {
            std::string keys;
            for (const SpecField<C> &sf : g.fields)
                keys += (keys.empty() ? "" : ", ") + std::string(sf.key);
            return csprintf("unknown %s spec key '%s' (keys: %s)", g.what,
                            key.c_str(), keys.c_str());
        }
        if (f->word_flag != nullptr) {
            out.*f->word_flag = val == f->word;
            if (out.*f->word_flag)
                continue;
        }
        std::string want = std::visit(
            [&](auto m) { return readValue(val, out.*m); }, f->member);
        if (!want.empty())
            return csprintf("%s spec value '%s' for '%s' is not %s",
                            g.what, val.c_str(), key.c_str(),
                            want.c_str());
    }
    cfg = out;
    return "";
}

template <typename C>
std::string
specSummary(const SpecGrammar<C> &g, const C &cfg)
{
    std::string s;
    for (const SpecField<C> &f : g.fields) {
        if (f.shown != nullptr && !f.shown(cfg))
            continue;
        s += (s.empty() ? "" : ",") + std::string(f.key) + "=";
        if (f.word_flag != nullptr && cfg.*f.word_flag)
            s += f.word;
        else
            s += std::visit([&](auto m) { return showValue(cfg.*m); },
                            f.member);
    }
    return s;
}

using OL = OpenLoopConfig;
const SpecGrammar<OL> OPENLOOP_SPEC{
    "openloop",
    // A mid-load default: well below saturation for every impl at the
    // 16-proc sweep shape, so smoke runs finish quickly.
    "rate=0.001",
    {
        {"rate", &OL::rate_ppc},
        {"burst", &OL::burst},
        {"queue_cap", &OL::queue_cap},
        {"slo_cycles", &OL::slo_cycles},
        {"ops_per_proc", &OL::ops_per_proc},
    }};

using SV = ServeConfig;
const SpecGrammar<SV> SERVE_SPEC{
    "serve",
    "",
    {
        {"combining", &SV::combining},
        {"combine_limit", &SV::combine_limit},
        {"backpressure", &SV::backpressure},
        {"credit_threshold", &SV::credit_threshold, nullptr, "auto",
         &SV::credit_auto},
        {"priority", &SV::priority},
        {"age_limit", &SV::age_limit},
        {"nack_backoff", &SV::nack_backoff},
        {"backoff_cap", &SV::backoff_cap},
    }};

// The loss/recovery and chaos groups (and resv_max_age) appear in a
// summary only when armed, so summaries of specs that predate them
// stay byte-identical.
using FC = FaultConfig;
bool lossShown(const FC &f) { return f.lossEnabled() || f.recoveryEnabled(); }
bool chaosShown(const FC &f) { return f.chaosEnabled(); }
bool ageShown(const FC &f) { return f.resv_max_age != 0; }

const SpecGrammar<FC> FAULT_SPEC{
    "fault",
    "jitter_prob=0.2,jitter_max=64,resv_drop_prob=0.05,evict_prob=0.02,"
    "nack_prob=0.1,max_extra_nacks=4",
    {
        {"seed", &FC::seed},
        {"jitter_prob", &FC::msg_jitter_prob},
        {"jitter_max", &FC::msg_jitter_max},
        {"resv_drop_prob", &FC::resv_drop_prob},
        {"evict_prob", &FC::evict_prob},
        {"nack_prob", &FC::nack_prob},
        {"max_extra_nacks", &FC::max_extra_nacks},
        {"drop_prob", &FC::msg_drop_prob, lossShown},
        {"flaky_links", &FC::flaky_links, lossShown},
        {"flaky_window", &FC::flaky_window, lossShown},
        {"flaky_duration", &FC::flaky_duration, lossShown},
        {"flaky_drop_prob", &FC::flaky_drop_prob, lossShown},
        {"req_timeout", &FC::req_timeout, lossShown},
        {"quarantine_k", &FC::quarantine_k, lossShown},
        {"quarantine_window", &FC::quarantine_window, lossShown},
        {"reorder_prob", &FC::reorder_prob, chaosShown},
        {"reorder_max", &FC::reorder_max, chaosShown},
        {"dup_prob", &FC::dup_prob, chaosShown},
        {"dup_delay", &FC::dup_delay, chaosShown},
        {"corrupt_prob", &FC::corrupt_prob, chaosShown},
        {"resv_max_age", &FC::resv_max_age, ageShown},
    }};

} // anonymous namespace

bool
parseInteger(std::string_view s, int &out)
{
    return readExact(s, out);
}

bool
parseInteger(std::string_view s, std::uint64_t &out)
{
    return readExact(s, out);
}

std::string
OpenLoopConfig::parse(const std::string &spec)
{
    return parseSpec(OPENLOOP_SPEC, spec, *this);
}

std::string
OpenLoopConfig::summary() const
{
    return specSummary(OPENLOOP_SPEC, *this);
}

std::string
ServeConfig::parse(const std::string &spec)
{
    return parseSpec(SERVE_SPEC, spec, *this);
}

std::string
ServeConfig::summary() const
{
    return specSummary(SERVE_SPEC, *this);
}

std::string
FaultConfig::parse(const std::string &spec)
{
    return parseSpec(FAULT_SPEC, spec, *this);
}

std::string
FaultConfig::summary() const
{
    return specSummary(FAULT_SPEC, *this);
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
        { "faults.msg_drop_prob", f.msg_drop_prob },
        { "faults.flaky_drop_prob", f.flaky_drop_prob },
        { "faults.reorder_prob", f.reorder_prob },
        { "faults.dup_prob", f.dup_prob },
        { "faults.corrupt_prob", f.corrupt_prob },
    };
    for (const auto &p : probs) {
        // Written so that a NaN fails too.
        if (!(p.v >= 0.0 && p.v <= 1.0))
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
    // are hard: a 4-node exploration would not terminate in any useful
    // time, and a loss budget above 1 squares the already exponential
    // branching.
    const McConfig &mcc = mc;
    if (mcc.nodes < 2 || mcc.nodes > 3)
        return csprintf("mc.nodes must be 2 or 3 (exhaustive "
                        "exploration is exponential in nodes), got %d",
                        mcc.nodes);
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
