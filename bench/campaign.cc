/**
 * @file
 * Correctness campaigns: the Figure 6 implementation matrix
 * (INV/UPD/UNC x FAP/LL-SC/CAS) kept exact under injected faults and
 * overload. One driver, five profiles:
 *
 *  - fault: the lock-free counter under the standard fault mix
 *    (jitter, reservation drops, forced evictions, extra NACKs) over
 *    many machine seeds;
 *  - recovery: the same counter under rising message-loss rates, the
 *    top level adding seeded flaky-link episodes with quarantine;
 *  - chaos: all six channel fault axes at once (jitter, loss, flaky
 *    links, reordering, duplication, corruption), escalating;
 *  - openloop: seeded Poisson arrivals at rising offered load plus one
 *    bursty level, served through the overload-protection layer;
 *  - overload: the fetch&add column 1x/2x/4x past the serving knee,
 *    ablated over the protections (none, +combining, +backpressure,
 *    +priority, all).
 *
 * Usage: campaign <fault|recovery|chaos|openloop|overload>
 *                 [--seeds K] [--seed BASE] [--jobs N]
 *
 * Every point runs one gate, and what the point's Config turns on picks
 * its checks: the run completes (else the watchdog diagnosis or the
 * blocked-transaction dump is the failure), the counter is exact, and
 * checkCoherence() passes; with faults on, checkFaultAccounting()
 * reconciles the ledger; with txn_trace on, the phase sums partition
 * every latency; with serve on, the serve ledger reconciles. Each
 * profile adds campaign-level gates over its rows.
 *
 * fault, recovery and chaos run machine seeds BASE..BASE+K-1 per
 * (impl, level); openloop and overload run seed BASE. DSM_FAULTS,
 * DSM_OPENLOOP and DSM_SERVE replace the matching built-in axis with a
 * single "custom" level, which is what a failed point's repro line
 * sets. A failed point writes WATCHDOG_<bench>_<index>_<labels>.txt
 * next to BENCH_<bench>.json; the point index keeps dump names
 * collision-free under --jobs N.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cpu/system.hh"
#include "exp/experiment.hh"
#include "fault/fault.hh"
#include "fault/recovery.hh"
#include "fault/watchdog.hh"
#include "mem/home_queue.hh"
#include "proto/checker.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/counter_apps.hh"
#include "workloads/openloop.hh"

using namespace dsm;

namespace {

const char *const USAGE =
    "usage: campaign <fault|recovery|chaos|openloop|overload> "
    "[--seeds K] [--seed BASE] [--jobs N]\n";

/** The spec variables, in the order a repro line sets them. */
const char *const SPEC_VARS[] = {"DSM_FAULTS", "DSM_OPENLOOP",
                                 "DSM_SERVE"};

/** One level of a campaign axis. */
template <typename C>
struct Level
{
    std::string label;
    std::string spec; ///< what the axis variable reproduces; "" = off
    C cfg;
};

/** A campaign axis and the variable that overrides it. */
template <typename C>
struct Axis
{
    const char *var;
    std::vector<Level<C>> levels;
    bool custom = false; ///< the variable replaced the built-in levels

    /** The repro assignment of one level, e.g. {DSM_SERVE, 0}. */
    std::pair<std::string, std::string>
    env(const Level<C> &lv) const
    {
        return {var, lv.spec.empty() ? "0" : lv.spec};
    }
};

/**
 * Build an axis from built-in (label, spec) pairs, where an empty spec
 * is the feature turned off. A set $var replaces them with one
 * "custom" level; "0" selects an off custom level only on an axis that
 * has an off level of its own.
 */
template <typename C>
Axis<C>
levelAxis(const char *var, C (*fromEnv)(),
          const std::vector<std::pair<std::string, std::string>> &builtins)
{
    Axis<C> axis{var, {}, false};
    C env = fromEnv();
    const char *raw = std::getenv(var);
    bool has_off =
        std::any_of(builtins.begin(), builtins.end(),
                    [](const auto &b) { return b.second.empty(); });
    if (env.enabled || (has_off && raw != nullptr && raw[0] != '\0')) {
        axis.custom = true;
        axis.levels.push_back(
            {"custom", env.enabled ? env.summary() : "", env});
        return axis;
    }
    for (const auto &[label, spec] : builtins) {
        Level<C> lv{label, spec, C()};
        if (!spec.empty()) {
            std::string err = lv.cfg.parse(spec);
            if (!err.empty())
                dsm_fatal("%s level '%s': %s", var, label.c_str(),
                          err.c_str());
        }
        axis.levels.push_back(std::move(lv));
    }
    return axis;
}

/** The campaign machine: 16 processors on a 4x4 mesh. */
Config
machine16()
{
    Config cfg;
    cfg.machine.num_procs = 16;
    cfg.machine.mesh_x = 4;
    cfg.machine.mesh_y = 4;
    // Organic retry streaks under this contention stay in the hundreds,
    // so the watchdog bounds below mean livelock, not slowness.
    cfg.machine.retry_jitter = 4;
    return cfg;
}

/**
 * Forward-progress bounds: faults and overload stretch transactions by
 * recovery timeouts, skew and deliberate parking (which the age bound
 * excludes), so the bounds are generous; a trip still means livelock.
 */
void
armWatchdog(Config &cfg)
{
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 100000;
    cfg.watchdog.max_txn_age = 5'000'000;
    cfg.watchdog.scan_period = 50'000;
}

std::string
fileLabel(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (c == ' ' || c == '+' || c == '/')
            c = '_';
    return out;
}

/**
 * The point gate: every invariant the point's Config turns on.
 * @return one line (or block) per violated invariant.
 */
std::vector<std::string>
pointProblems(System &sys, bool completed, bool correct)
{
    const Config &cfg = sys.cfg();
    std::vector<std::string> problems;
    if (!completed) {
        const Watchdog *wd = sys.watchdog();
        problems.push_back(wd != nullptr && wd->tripped()
                               ? wd->diagnosis()
                               : "run did not complete:\n" +
                                     Watchdog::blockedTxnDump(sys));
    } else {
        if (!correct)
            problems.push_back("final counter value is wrong");
        for (std::string &v : checkCoherence(sys))
            problems.push_back(std::move(v));
        if (cfg.faults.enabled)
            for (std::string &v : checkFaultAccounting(sys))
                problems.push_back(std::move(v));
    }
    if (cfg.txn_trace.enabled && sys.txns().phaseSumMismatches() != 0)
        problems.push_back(csprintf(
            "%llu transaction phase-sum mismatch(es)",
            (unsigned long long)sys.txns().phaseSumMismatches()));
    if (cfg.serve.enabled) {
        // Every served request consumed a slot or rode a combined
        // batch, and the hi/lo queues partition it.
        const ServeStats &sst = sys.serveStats();
        if (sst.served != sst.slots + sst.coalesced)
            problems.push_back(csprintf(
                "serve ledger: served %llu != slots %llu + coalesced "
                "%llu",
                (unsigned long long)sst.served,
                (unsigned long long)sst.slots,
                (unsigned long long)sst.coalesced));
        if (sst.served != sst.hi_served + sst.lo_served)
            problems.push_back(csprintf(
                "serve ledger: served %llu != hi %llu + lo %llu",
                (unsigned long long)sst.served,
                (unsigned long long)sst.hi_served,
                (unsigned long long)sst.lo_served));
    }
    return problems;
}

/** Runs the point gate for the workload; returns the row's "ok". */
using Check = std::function<std::uint64_t(bool completed, bool correct)>;
using Workload = std::function<PointResult(System &, const Check &)>;

/** A (name, value) pair: a point's axis labels or repro variables. */
using Tag = std::pair<std::string, std::string>;

/**
 * One campaign run: the parsed command line, the Experiment, the
 * failure sink, and the campaign-level gate errors.
 */
class Campaign
{
  public:
    Campaign(const char *profile, int default_seeds, int argc,
             char **argv)
        : ex(csprintf("%s_sweep", profile), machine16()),
          _profile(profile), _seeded(default_seeds > 0)
    {
        jobs = parseJobsFlag(argc, argv);
        if (_seeded)
            nseeds = parseSeedsFlag(argc, argv, default_seeds);
        seed = parseSeedFlag(argc, argv);
        if (seed == 0)
            seed = seedFromEnv();
        if (seed == 0)
            seed = 1;
        // Seeds are assigned per point; consume the global override so
        // Experiment::run() does not flatten them again.
        unsetenv("DSM_SEED");
    }

    int jobs = 0;
    int nseeds = 1;
    std::uint64_t seed = 1;
    Experiment ex;

    /**
     * Declare one point. @p tags name it (the first is the impl) in
     * dumps and FAILED lines; @p env holds the axis specs that
     * rebuild it.
     */
    void
    point(std::string row, std::string col, Config cfg,
          std::vector<Tag> tags, const std::vector<Tag> &env,
          Workload fn)
    {
        std::string repro = reproLine(env, cfg.machine.seed);
        std::size_t idx = ex.numPoints();
        ex.point(std::move(row), std::move(col), std::move(cfg),
                 [this, fn, idx, tags, repro](System &sys) {
                     return fn(sys, [&](bool completed, bool correct) {
                         return check(sys, idx, tags, repro, completed,
                                      correct);
                     });
                 });
    }

    /** Execute every point; the report rows afterwards. */
    const std::vector<JsonValue> &
    run()
    {
        ex.run(jobs);
        std::string err;
        if (!parseJson(ex.reportJson(), &_report, &err))
            dsm_fatal("cannot reparse own report: %s", err.c_str());
        const JsonValue *rows = _report.find("results");
        dsm_assert(rows != nullptr && rows->isArray() &&
                       rows->array.size() == ex.numPoints(),
                   "unexpected results array");
        return rows->array;
    }

    /** Sum of one numeric row field over every point. */
    std::uint64_t
    total(const char *field) const
    {
        std::uint64_t sum = 0;
        for (const JsonValue &row : _report.find("results")->array)
            sum += static_cast<std::uint64_t>(row.num(field));
        return sum;
    }

    /** Record a campaign-level gate failure. */
    void gate(const std::string &error) { _gate_errors.push_back(error); }

    /** Failed points the watchdog diagnosed. */
    std::uint64_t
    watchdogTrips() const
    {
        return static_cast<std::uint64_t>(
            std::count_if(_failures.begin(), _failures.end(),
                          [](const Failure &f) { return f.tripped; }));
    }

    /**
     * Print the summary line, write the dumps, report the gate errors,
     * and print the repro line. @return the exit code.
     */
    int
    finish(const std::string &shape, const std::string &totals)
    {
        std::printf("campaign: %zu points (%s), %s, %zu failure(s)\n",
                    ex.numPoints(), shape.c_str(), totals.c_str(),
                    _failures.size());
        std::sort(_failures.begin(), _failures.end(),
                  [](const Failure &a, const Failure &b) {
                      return a.index < b.index;
                  });
        for (const Failure &f : _failures) {
            std::string file =
                csprintf("WATCHDOG_%s_sweep_%zu", _profile, f.index);
            for (const Tag &t : f.tags)
                file += "_" + fileLabel(t.second);
            std::string path = benchOutputPath(file + ".txt");
            std::ofstream out(path, std::ios::binary);
            if (out)
                out << f.report;
            std::fprintf(stderr, "FAILED %s -> %s\n",
                         describe(f.tags).c_str(), path.c_str());
        }
        for (const std::string &e : _gate_errors)
            std::fprintf(stderr, "campaign error: %s\n", e.c_str());
        if (_failures.empty() && _gate_errors.empty())
            return 0;
        // A point failure repeats that point's specs verbatim; a
        // campaign gate needs the whole run as it was given.
        std::printf("reproduce with: %s\n",
                    _failures.empty()
                        ? reproLine({}, seed).c_str()
                        : _failures.front().repro.c_str());
        return 1;
    }

  private:
    struct Failure
    {
        std::size_t index;
        std::vector<Tag> tags;
        std::string repro;
        std::string report;
        bool tripped;
    };

    static std::string
    describe(const std::vector<Tag> &tags)
    {
        std::string s = tags.front().second;
        for (std::size_t i = 1; i < tags.size(); ++i)
            s += " " + tags[i].first + "=" + tags[i].second;
        return s;
    }

    /**
     * The command that reruns one point (seeded profiles narrow to its
     * seed), or with @p env empty the whole campaign. Spec variables
     * the point does not fix are repeated as the run was given them.
     */
    std::string
    reproLine(const std::vector<Tag> &env, std::uint64_t s) const
    {
        std::string line;
        for (const char *var : SPEC_VARS) {
            auto it =
                std::find_if(env.begin(), env.end(),
                             [&](const Tag &e) { return e.first == var; });
            const char *raw = std::getenv(var);
            if (it != env.end())
                line += csprintf("%s='%s' ", var, it->second.c_str());
            else if (raw != nullptr && raw[0] != '\0')
                line += csprintf("%s='%s' ", var, raw);
        }
        line += csprintf("campaign %s", _profile);
        if (_seeded)
            line += csprintf(" --seeds %d", env.empty() ? nseeds : 1);
        return line + csprintf(" --seed %llu", (unsigned long long)s);
    }

    std::uint64_t
    check(System &sys, std::size_t idx, const std::vector<Tag> &tags,
          const std::string &repro, bool completed, bool correct)
    {
        std::vector<std::string> problems =
            pointProblems(sys, completed, correct);
        if (problems.empty())
            return 1;
        std::string report =
            csprintf("%s_sweep failure: %s\nreproduce with: %s\n",
                     _profile, describe(tags).c_str(), repro.c_str());
        for (const std::string &p : problems)
            report += p + "\n";
        std::lock_guard<std::mutex> g(_mutex);
        _failures.push_back(Failure{idx, tags, repro, std::move(report),
                                    sys.watchdog() != nullptr &&
                                        sys.watchdog()->tripped()});
        return 0;
    }

    const char *_profile;
    bool _seeded;
    JsonValue _report;
    std::mutex _mutex;
    std::vector<Failure> _failures;
    std::vector<std::string> _gate_errors;
};

/** Row fields of the fault-axis profiles beyond the common prefix. */
using FaultFields = void (*)(BenchRow &, System &);

/** @p sys's fault counters; zeros when its level turns faults off. */
FaultPlan::Counters
faultCounters(System &sys)
{
    return sys.faults() != nullptr ? sys.faults()->counters()
                                   : FaultPlan::Counters{};
}

/** @p sys's recovery counters; zeros when req_timeout is off. */
Recovery::Counters
recoveryCounters(System &sys)
{
    return sys.recovery() != nullptr ? sys.recovery()->counters()
                                     : Recovery::Counters{};
}

/**
 * The points of the fault-axis profiles: impl x level x seed, each a
 * contended lock-free counter run of @p phases phases under the
 * level's faults. With @p per_level the level is a point axis (in the
 * column label and the dump name) and phase sums are checked.
 */
void
counterPoints(Campaign &c, const Axis<FaultConfig> &axis, int phases,
              bool per_level, FaultFields fields)
{
    for (const ImplCase &impl : applicationMatrix()) {
        for (const Level<FaultConfig> &lv : axis.levels) {
            for (int k = 0; k < c.nseeds; ++k) {
                Config cfg = c.ex.configFor(impl);
                cfg.machine.seed = c.seed + static_cast<std::uint64_t>(k);
                cfg.faults = lv.cfg;
                cfg.txn_trace.enabled = per_level;
                armWatchdog(cfg);
                std::string seed =
                    csprintf("%llu", (unsigned long long)cfg.machine.seed);
                std::vector<Tag> tags = {{"impl", impl.label}};
                if (per_level)
                    tags.emplace_back("level", lv.label);
                tags.emplace_back("seed", seed);
                std::string col =
                    per_level ? lv.label + "/" + seed : seed;
                c.point(
                    impl.label, col, cfg, tags, {axis.env(lv)},
                    [impl, phases, fields, s = cfg.machine.seed](
                        System &sys, const Check &check) {
                        CounterAppConfig app;
                        app.kind = CounterKind::LOCK_FREE;
                        app.prim = impl.prim;
                        // Fault rates are per message: the run must be
                        // long enough that every level expects many
                        // events.
                        app.contention = 8;
                        app.phases = phases;
                        CounterAppResult r = runCounterApp(sys, app);
                        std::uint64_t ok = check(r.completed, r.correct);
                        PointResult res;
                        res.value = r.avg_cycles_per_update;
                        res.metrics = collectRunMetrics(sys);
                        SysStats agg = sys.stats();
                        res.fields.set("seed", s)
                            .set("ok", ok)
                            .set("updates", r.updates)
                            .set("retries", agg.retries)
                            .set("nacks", agg.nacks);
                        fields(res.fields, sys);
                        return res;
                    });
            }
        }
    }
}

int
faultProfile(Campaign &c)
{
    // The standard mix unless DSM_FAULTS overrides it.
    Axis<FaultConfig> mix = levelAxis("DSM_FAULTS", faultConfigFromEnv,
                                      {{"default", "default"}});
    const FaultConfig &fc = mix.levels.front().cfg;
    c.ex.title(csprintf("Fault-injection campaign: lock-free counter, "
                        "p=16, c=8, %d seed(s) from %llu",
                        c.nseeds, (unsigned long long)c.seed))
        .title(csprintf("fault mix: %s", fc.summary().c_str()))
        .meta("app", "lock-free counter")
        .meta("seeds", c.nseeds)
        .rowKey("impl")
        .colKey("seed")
        .table(false)
        .faults(fc);
    counterPoints(c, mix, 4, false, [](BenchRow &row, System &sys) {
        FaultPlan::Counters f = faultCounters(sys);
        row.set("nacks_injected", f.nacks_injected)
            .set("resv_drops", f.resv_drops)
            .set("forced_evictions", f.forced_evictions)
            .set("jitter_applied", f.jitter_applied)
            .set("jitter_cycles", f.jitter_cycles);
    });
    c.run();
    std::uint64_t injected = c.total("nacks_injected") +
                             c.total("resv_drops") +
                             c.total("forced_evictions") +
                             c.total("jitter_applied");
    return c.finish(csprintf("9 impls x %d seeds", c.nseeds),
                    csprintf("%llu faults injected",
                             (unsigned long long)injected));
}

int
recoveryProfile(Campaign &c)
{
    // Pure random loss at two rates, then the same loss plus seeded
    // flaky-link episodes with quarantine armed.
    Axis<FaultConfig> loss = levelAxis(
        "DSM_FAULTS", faultConfigFromEnv,
        {{"2e-4", "drop_prob=0.0002,req_timeout=2000"},
         {"1e-3", "drop_prob=0.001,req_timeout=2000"},
         {"1e-3+flaky",
          "drop_prob=0.001,flaky_links=1,flaky_window=50000,"
          "flaky_duration=50000,flaky_drop_prob=1,req_timeout=2000,"
          "quarantine_k=2,quarantine_window=1000000000"}});
    std::size_t nlevels = loss.levels.size();
    c.ex.title(csprintf("Message-loss recovery campaign: lock-free "
                        "counter, p=16, c=8, %zu level(s), %d seed(s) "
                        "from %llu",
                        nlevels, c.nseeds, (unsigned long long)c.seed))
        .meta("app", "lock-free counter")
        .meta("seeds", c.nseeds)
        .meta("levels", static_cast<int>(nlevels))
        .rowKey("impl")
        .colKey("loss")
        .table(false);
    counterPoints(c, loss, 64, true, [](BenchRow &row, System &sys) {
        FaultPlan::Counters f = faultCounters(sys);
        Recovery::Counters r = recoveryCounters(sys);
        row.set("msg_drops", f.msg_drops)
            .set("flaky_drops", f.flaky_drops)
            .set("drops", r.drops)
            .set("req_drops", r.req_drops)
            .set("reply_drops", r.reply_drops)
            .set("retransmits", r.retransmits)
            .set("retransmit_covered", r.retransmit_covered)
            .set("quarantine_covered", r.quarantine_covered)
            .set("dup_replayed", r.dup_replayed)
            .set("dup_reprocessed", r.dup_reprocessed)
            .set("links_quarantined", r.links_quarantined)
            .set("nacks_lost", r.nacks_lost)
            .set("stale_replies", r.stale_replies);
    });
    c.run();
    std::uint64_t drops = c.total("drops");
    std::uint64_t retransmits = c.total("retransmits");
    // A silently loss-free "pass" would prove nothing.
    if (drops == 0 || retransmits == 0)
        c.gate("no drops/retransmits were exercised; the loss axis is "
               "miswired");
    return c.finish(
        csprintf("9 impls x %zu levels x %d seeds", nlevels, c.nseeds),
        csprintf("%llu drops, %llu retransmits, %llu replays, %llu "
                 "quarantines",
                 (unsigned long long)drops,
                 (unsigned long long)retransmits,
                 (unsigned long long)c.total("dup_replayed"),
                 (unsigned long long)c.total("links_quarantined")));
}

int
chaosProfile(Campaign &c)
{
    // Every channel fault armed at once, escalating: "mild" keeps each
    // axis rare, "moderate" raises every rate, and "heavy+flaky" adds a
    // guaranteed flaky-link episode with quarantine plus the LL
    // reservation age bound.
    Axis<FaultConfig> chaos = levelAxis(
        "DSM_FAULTS", faultConfigFromEnv,
        {{"mild",
          "jitter_prob=0.001,jitter_max=8,drop_prob=0.0002,"
          "reorder_prob=0.0005,reorder_max=16,dup_prob=0.0005,"
          "dup_delay=32,corrupt_prob=0.0002,req_timeout=2000"},
         {"moderate",
          "jitter_prob=0.002,jitter_max=16,drop_prob=0.0005,"
          "reorder_prob=0.001,reorder_max=32,dup_prob=0.001,"
          "dup_delay=64,corrupt_prob=0.0005,req_timeout=2000"},
         {"heavy+flaky",
          "jitter_prob=0.005,jitter_max=32,drop_prob=0.001,"
          "flaky_links=1,flaky_window=50000,flaky_duration=50000,"
          "flaky_drop_prob=1,quarantine_k=2,"
          "quarantine_window=1000000000,reorder_prob=0.002,"
          "reorder_max=64,dup_prob=0.002,dup_delay=128,"
          "corrupt_prob=0.001,resv_max_age=200000,req_timeout=2000"}});
    std::size_t nlevels = chaos.levels.size();
    c.ex.title(csprintf("Faulty-channel chaos campaign: lock-free "
                        "counter, p=16, c=8, %zu level(s), %d seed(s) "
                        "from %llu",
                        nlevels, c.nseeds, (unsigned long long)c.seed))
        .meta("app", "lock-free counter")
        .meta("seeds", c.nseeds)
        .meta("levels", static_cast<int>(nlevels))
        .rowKey("impl")
        .colKey("chaos")
        .table(false);
    counterPoints(c, chaos, 64, true, [](BenchRow &row, System &sys) {
        FaultPlan::Counters f = faultCounters(sys);
        Recovery::Counters r = recoveryCounters(sys);
        row.set("msg_drops", f.msg_drops)
            .set("flaky_drops", f.flaky_drops)
            .set("msg_reorders", f.msg_reorders)
            .set("msg_dups", f.msg_dups)
            .set("msg_corruptions", f.msg_corruptions)
            .set("drops", r.drops)
            .set("retransmits", r.retransmits)
            .set("retransmit_covered", r.retransmit_covered)
            .set("quarantine_covered", r.quarantine_covered)
            .set("corrupt_detected", r.corrupt_detected)
            .set("dups_absorbed", r.dups_absorbed)
            .set("reorders_delivered", r.reorders_delivered)
            .set("links_quarantined", r.links_quarantined)
            .set("stale_replies", r.stale_replies);
    });
    c.run();
    std::uint64_t drops = c.total("drops");
    std::uint64_t retransmits = c.total("retransmits");
    std::uint64_t reorders = c.total("msg_reorders");
    std::uint64_t dups = c.total("msg_dups");
    std::uint64_t corruptions = c.total("msg_corruptions");
    // Every axis some level arms must inject something; a single-axis
    // DSM_FAULTS repro must not fail on the axes it left off.
    bool arm_loss = false, arm_reorder = false, arm_dup = false,
         arm_corrupt = false;
    for (const Level<FaultConfig> &lv : chaos.levels) {
        arm_loss |= lv.cfg.msg_drop_prob > 0.0 || lv.cfg.flaky_links > 0;
        arm_reorder |= lv.cfg.reorder_prob > 0.0;
        arm_dup |= lv.cfg.dup_prob > 0.0;
        arm_corrupt |= lv.cfg.corrupt_prob > 0.0;
    }
    if (((arm_loss || arm_corrupt) && (drops == 0 || retransmits == 0)) ||
        (arm_reorder && reorders == 0) || (arm_dup && dups == 0) ||
        (arm_corrupt && corruptions == 0))
        c.gate(csprintf("some chaos axis injected nothing (drops %llu, "
                        "retransmits %llu, reorders %llu, dups %llu, "
                        "corruptions %llu); the axis is miswired",
                        (unsigned long long)drops,
                        (unsigned long long)retransmits,
                        (unsigned long long)reorders,
                        (unsigned long long)dups,
                        (unsigned long long)corruptions));
    return c.finish(
        csprintf("9 impls x %zu levels x %d seeds", nlevels, c.nseeds),
        csprintf("%llu drops, %llu retransmits, %llu reorders, %llu "
                 "dups, %llu corruptions, %llu watchdog trip(s)",
                 (unsigned long long)drops,
                 (unsigned long long)retransmits,
                 (unsigned long long)reorders, (unsigned long long)dups,
                 (unsigned long long)corruptions,
                 (unsigned long long)c.watchdogTrips()));
}

int
openloopProfile(Campaign &c)
{
    // Poisson arrivals per processor per cycle, from well under
    // saturation to well past it, plus one bursty level last.
    const char *common = "slo_cycles=2000,ops_per_proc=256";
    Axis<OpenLoopConfig> load = levelAxis(
        "DSM_OPENLOOP", openLoopConfigFromEnv,
        {{"1e-4", csprintf("rate=0.0001,%s", common)},
         {"3e-4", csprintf("rate=0.0003,%s", common)},
         {"1e-3", csprintf("rate=0.001,%s", common)},
         {"3e-3", csprintf("rate=0.003,%s", common)},
         {"3e-4x8", csprintf("rate=0.0003,burst=8,%s", common)}});
    std::size_t nlevels = load.levels.size();
    // Serve through the overload-protection layer: combining keeps
    // hot-word fetch&adds O(1) in service slots and credit backpressure
    // sheds at the admission edge, which is what lets the saturation
    // gate demand a flat curve. DSM_SERVE overrides (e.g. "0"); an
    // empty value counts as unset, as in the repro line.
    Config &base = c.ex.baseConfig();
    const char *serve = std::getenv("DSM_SERVE");
    if (serve != nullptr && serve[0] != '\0')
        base.serve = serveConfigFromEnv();
    else
        base.serve.enabled = true;
    c.ex.title(csprintf("Open-loop serving campaign: Poisson arrivals "
                        "into bounded admission queues, p=16, %zu "
                        "level(s), seed %llu; cell value = sojourn p99",
                        nlevels, (unsigned long long)c.seed))
        .meta("app", "open-loop lock-free counter")
        .meta("levels", static_cast<int>(nlevels))
        .meta("seed", c.seed)
        .rowKey("impl")
        .colKey("load")
        .table(true)
        // The exemplar span trees are the point of the campaign; the
        // TRACE_ file lands when DSM_BENCH_DIR is set.
        .traceTxns(true);
    std::vector<ImplCase> impls = applicationMatrix();
    for (const ImplCase &impl : impls) {
        for (const Level<OpenLoopConfig> &lv : load.levels) {
            Config cfg = c.ex.configFor(impl);
            cfg.machine.seed = c.seed;
            cfg.openloop = lv.cfg;
            // The ADMIT phase keeps the phase-sum invariant honest
            // under queueing; the four slowest transactions' span
            // trees land in the report.
            cfg.txn_trace.enabled = true;
            cfg.txn_trace.exemplar_k = 4;
            c.point(
                impl.label, lv.label, cfg,
                {{"impl", impl.label}, {"load", lv.label}},
                {load.env(lv)}, [impl](System &sys, const Check &check) {
                    OpenLoopResult r = runOpenLoop(sys, impl.prim);
                    std::uint64_t ok = check(r.completed_run, r.correct);
                    PointResult res;
                    res.value = static_cast<double>(r.sojourn_p99);
                    res.metrics = collectRunMetrics(sys);
                    res.fields.set("offered", r.offered)
                        .set("admitted", r.admitted)
                        .set("rejected", r.rejected)
                        .set("completed", r.completed)
                        .set("slo_violations", r.slo_violations)
                        .set("slo_frac", r.slo_frac)
                        .set("throughput", r.throughput)
                        .set("sojourn_mean", r.sojourn_mean)
                        .set("sojourn_p50",
                             static_cast<std::uint64_t>(r.sojourn_p50))
                        .set("sojourn_p99",
                             static_cast<std::uint64_t>(r.sojourn_p99))
                        .set("sojourn_p999",
                             static_cast<std::uint64_t>(r.sojourn_p999))
                        .set("sojourn_max",
                             static_cast<std::uint64_t>(r.sojourn_max))
                        .set("admission_wait_mean", r.admission_wait_mean)
                        .set("ok", ok);
                    // The tail picture: conditional per-phase
                    // attribution above p90/p99 plus the slowest
                    // transactions' summaries.
                    JsonWriter w;
                    w.beginObject();
                    w.key("attribution");
                    w.raw(sys.txns().attribution().tailJson());
                    w.key("exemplars");
                    w.raw(sys.txns().exemplarsJson());
                    w.endObject();
                    res.fields.setRaw("tail", w.str());
                    return res;
                });
        }
    }
    const std::vector<JsonValue> &rows = c.run();
    std::uint64_t rejected = c.total("rejected");
    std::uint64_t violations = c.total("slo_violations");
    if (!load.custom) {
        // Saturation gate over the pure-rate levels (all but the
        // bursty last one): with combining and backpressure on, the
        // curve rises and then stays flat, goodput within 10% of the
        // running peak. A sag means a protection regressed.
        for (std::size_t ii = 0; ii < impls.size(); ++ii) {
            double peak = 0.0;
            for (std::size_t li = 0; li + 1 < nlevels; ++li) {
                double tput = rows[ii * nlevels + li].num("throughput");
                if (peak > 0 && tput < peak * 0.9)
                    c.gate(csprintf("%s: throughput collapsed at load "
                                    "%s: peak %g -> %g",
                                    impls[ii].label.c_str(),
                                    load.levels[li].label.c_str(), peak,
                                    tput));
                peak = std::max(peak, tput);
            }
        }
        // A sweep whose top level sheds nothing and never misses the
        // SLO is not probing the tail at all.
        if (rejected == 0 || violations == 0)
            c.gate("no shed arrivals or no SLO violations; the load "
                   "axis never saturates");
    }
    return c.finish(
        csprintf("%zu impls x %zu levels", impls.size(), nlevels),
        csprintf("%llu completed, %llu rejected, %llu SLO violations",
                 (unsigned long long)c.total("completed"),
                 (unsigned long long)rejected,
                 (unsigned long long)violations));
}

/** The overload gates over the built-in mode and load axes. */
void
overloadGates(Campaign &c, const std::vector<JsonValue> &rows,
              const std::vector<ImplCase> &impls,
              const Axis<ServeConfig> &modes,
              const Axis<OpenLoopConfig> &load)
{
    std::size_t nmodes = modes.levels.size();
    std::size_t nlevels = load.levels.size();
    auto rowAt = [&](std::size_t ii, std::size_t mi,
                     std::size_t li) -> const JsonValue & {
        return rows[(ii * nmodes + mi) * nlevels + li];
    };
    std::size_t mi_none = 0, mi_all = nmodes - 1;
    dsm_assert(modes.levels[mi_none].label == "none" &&
                   modes.levels[mi_all].label == "all",
               "mode axis lost its endpoints");
    bool baseline_collapses = false;
    for (std::size_t ii = 0; ii < impls.size(); ++ii) {
        const char *impl = impls[ii].label.c_str();
        // Every mechanism on: goodput at every overload point within
        // 10% of the running peak (overload shows in the tail and in
        // shedding, not as a goodput cliff).
        double peak = 0.0;
        for (std::size_t li = 0; li < nlevels; ++li) {
            double goodput = rowAt(ii, mi_all, li).num("goodput");
            if (peak > 0 && goodput < peak * 0.9)
                c.gate(csprintf("%s all: goodput sagged > 10%% at load "
                                "%s (peak %g -> %g)",
                                impl, load.levels[li].label.c_str(), peak,
                                goodput));
            peak = std::max(peak, goodput);
        }
        double none_1x_p99 = rowAt(ii, mi_none, 0).num("sojourn_p99");
        for (std::size_t li = 1; li < nlevels; ++li) {
            double none_p99 = rowAt(ii, mi_none, li).num("sojourn_p99");
            double all_p99 = rowAt(ii, mi_all, li).num("sojourn_p99");
            // The protections never worsen the overload tail (10%
            // slack for schedule perturbation)...
            if (all_p99 > none_p99 * 1.1)
                c.gate(csprintf("%s at load %s: protections worsened "
                                "the tail (p99 %g -> %g)",
                                impl, load.levels[li].label.c_str(),
                                none_p99, all_p99));
            // ... and the unprotected stack collapses somewhere: p99
            // past 8x its 1x value or most completions over the SLO.
            if (none_p99 > 8.0 * std::max(none_1x_p99, 1.0) ||
                rowAt(ii, mi_none, li).num("slo_frac") >= 0.5)
                baseline_collapses = true;
        }
        // For the home-served UNC fetch&add, combining folds the whole
        // overload into O(1) service slots: the protected p99 at 4x
        // stays within 3x of its 1x value.
        if (impls[ii].label.rfind("UNC", 0) == 0) {
            double p99_1x = rowAt(ii, mi_all, 0).num("sojourn_p99");
            double p99_top =
                rowAt(ii, mi_all, nlevels - 1).num("sojourn_p99");
            if (p99_top > 3.0 * std::max(p99_1x, 1.0))
                c.gate(csprintf("%s all: combined fetch&add tail is not "
                                "flat under 4x overload (p99 %g at 1x "
                                "-> %g)",
                                impl, p99_1x, p99_top));
        }
    }
    // The campaign certifies a contrast, not a tautology, and
    // exercises every mechanism it ablates.
    if (!baseline_collapses)
        c.gate("baseline 'none' mode degraded gracefully everywhere; "
               "the load axis is not probing overload");
    if (c.total("serve_coalesced") == 0)
        c.gate("no requests were ever combined");
    if (c.total("throttle_events") == 0)
        c.gate("backpressure never throttled a requester");
    if (c.total("rejected") == 0)
        c.gate("no arrivals were ever shed");
}

int
overloadProfile(Campaign &c)
{
    // Each protection in isolation, then all of them.
    Axis<ServeConfig> modes = levelAxis(
        "DSM_SERVE", serveConfigFromEnv,
        {{"none", ""},
         {"+combining",
          "combining=1,backpressure=0,priority=0,nack_backoff=0"},
         {"+backpressure",
          "combining=0,backpressure=1,priority=0,nack_backoff=0"},
         {"+priority",
          "combining=0,backpressure=0,priority=1,nack_backoff=0"},
         {"all", "1"}});
    // The serving knee of this machine sits near 1e-3 arrivals/cycle/
    // proc (the openloop axis), so 2e-3 and 4e-3 are 2x and 4x
    // saturation.
    const char *common = "slo_cycles=2000,ops_per_proc=192";
    Axis<OpenLoopConfig> load = levelAxis(
        "DSM_OPENLOOP", openLoopConfigFromEnv,
        {{"1x", csprintf("rate=0.001,%s", common)},
         {"2x", csprintf("rate=0.002,%s", common)},
         {"4x", csprintf("rate=0.004,%s", common)}});
    // Combining is a home-side mechanism, so the home-served UNC/UPD
    // fetch&add shows it directly while INV (fetch&add in the cache)
    // exercises the other three.
    std::vector<ImplCase> impls;
    for (const ImplCase &impl : applicationMatrix())
        if (impl.prim == Primitive::FAP)
            impls.push_back(impl);
    std::size_t nmodes = modes.levels.size();
    std::size_t nlevels = load.levels.size();
    c.ex.title(csprintf("Overload campaign: open-loop fetch&add at 1x/2x/"
                        "4x saturation, p=16, %zu mode(s) x %zu level(s), "
                        "seed %llu; cell value = goodput, updates per "
                        "1000 cycles",
                        nmodes, nlevels, (unsigned long long)c.seed))
        .meta("app", "open-loop lock-free counter")
        .meta("modes", static_cast<int>(nmodes))
        .meta("levels", static_cast<int>(nlevels))
        .meta("seed", c.seed)
        .rowKey("impl_mode")
        .colKey("load")
        .table(true);
    for (const ImplCase &impl : impls) {
        for (const Level<ServeConfig> &mode : modes.levels) {
            for (const Level<OpenLoopConfig> &lv : load.levels) {
                Config cfg = c.ex.configFor(impl);
                cfg.machine.seed = c.seed;
                cfg.openloop = lv.cfg;
                cfg.serve = mode.cfg;
                // The phase sums include both the ADMIT queueing phase
                // and the serve layer's parked cycles.
                cfg.txn_trace.enabled = true;
                armWatchdog(cfg);
                c.point(
                    impl.label + " " + mode.label, lv.label, cfg,
                    {{"impl", impl.label},
                     {"mode", mode.label},
                     {"load", lv.label}},
                    {load.env(lv), modes.env(mode)},
                    [impl](System &sys, const Check &check) {
                        OpenLoopResult r = runOpenLoop(sys, impl.prim);
                        std::uint64_t ok =
                            check(r.completed_run, r.correct);
                        const ServeStats &sst = sys.serveStats();
                        double shed_frac =
                            r.offered > 0
                                ? static_cast<double>(r.rejected) /
                                      static_cast<double>(r.offered)
                                : 0.0;
                        PointResult res;
                        res.value = r.throughput * 1000.0;
                        res.metrics = collectRunMetrics(sys);
                        res.fields.set("offered", r.offered)
                            .set("admitted", r.admitted)
                            .set("rejected", r.rejected)
                            .set("completed", r.completed)
                            .set("goodput", r.throughput)
                            .set("shed_frac", shed_frac)
                            .set("slo_violations", r.slo_violations)
                            .set("slo_frac", r.slo_frac)
                            .set("sojourn_mean", r.sojourn_mean)
                            .set("sojourn_p50",
                                 static_cast<std::uint64_t>(r.sojourn_p50))
                            .set("sojourn_p99",
                                 static_cast<std::uint64_t>(r.sojourn_p99))
                            .set("sojourn_p999", static_cast<std::uint64_t>(
                                                     r.sojourn_p999))
                            .set("serve_slots", sst.slots)
                            .set("serve_coalesced", sst.coalesced)
                            .set("serve_batches", sst.batches)
                            .set("serve_aged", sst.aged)
                            .set("throttle_events", sst.throttle_events)
                            .set("backoff_capped", sst.backoff_capped)
                            .set("ok", ok);
                        return res;
                    });
            }
        }
    }
    const std::vector<JsonValue> &rows = c.run();
    // A custom mode or load replaces an axis and turns the shape gates
    // off; the point gate still runs.
    if (!modes.custom && !load.custom)
        overloadGates(c, rows, impls, modes, load);
    return c.finish(
        csprintf("%zu impls x %zu modes x %zu levels", impls.size(),
                 nmodes, nlevels),
        csprintf("%llu coalesced, %llu throttle events, %llu capped "
                 "backoffs, %llu shed",
                 (unsigned long long)c.total("serve_coalesced"),
                 (unsigned long long)c.total("throttle_events"),
                 (unsigned long long)c.total("backoff_capped"),
                 (unsigned long long)c.total("rejected")));
}

struct Profile
{
    const char *name;
    int default_seeds; ///< 0: one seed, --seeds is not read
    int (*run)(Campaign &);
};

const Profile PROFILES[] = {
    {"fault", 50, faultProfile},
    {"recovery", 5, recoveryProfile},
    {"chaos", 8, chaosProfile},
    {"openloop", 0, openloopProfile},
    {"overload", 0, overloadProfile},
};

} // namespace

int
main(int argc, char **argv)
{
    for (const Profile &p : PROFILES) {
        if (argc >= 2 && std::strcmp(argv[1], p.name) == 0) {
            Campaign c(p.name, p.default_seeds, argc, argv);
            return p.run(c);
        }
    }
    std::fputs(USAGE, stderr);
    return 2;
}
