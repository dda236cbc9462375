/**
 * @file
 * Tests for the deterministic fault-injection layer and the
 * forward-progress watchdogs: FaultConfig parsing, zero-cost-when-off,
 * bit-exact reproducibility per seed, a reduced randomized campaign
 * over the application implementation matrix, and directed
 * deadlock/livelock scenarios that must be detected and diagnosed
 * rather than hanging the test suite.
 */

#include "helpers.hh"

#include <initializer_list>
#include <tuple>
#include <utility>

#include "exp/experiment.hh"
#include "fault/fault.hh"
#include "workloads/counter_apps.hh"

using namespace dsm;
using namespace dsmtest;

namespace {

/** The standard fault mix on a small machine. */
Config
faultyConfig(const SyncConfig &sync, std::uint64_t seed)
{
    Config cfg;
    cfg.machine.num_procs = 8;
    cfg.machine.mesh_x = 4;
    cfg.machine.mesh_y = 2;
    cfg.machine.seed = seed;
    cfg.sync = sync;
    std::string err = cfg.faults.parse("default");
    EXPECT_EQ(err, "");
    return cfg;
}

/** Run the lock-free counter app and return its result. */
CounterAppResult
runCounter(System &sys, Primitive prim, int contention, int phases)
{
    CounterAppConfig app;
    app.kind = CounterKind::LOCK_FREE;
    app.prim = prim;
    app.contention = contention;
    app.phases = phases;
    return runCounterApp(sys, app);
}

} // namespace

TEST(FaultConfig, ParseDefaultMix)
{
    FaultConfig fc;
    EXPECT_EQ(fc.parse("default"), "");
    EXPECT_TRUE(fc.enabled);
    EXPECT_DOUBLE_EQ(fc.msg_jitter_prob, 0.2);
    EXPECT_EQ(fc.msg_jitter_max, 64u);
    EXPECT_DOUBLE_EQ(fc.resv_drop_prob, 0.05);
    EXPECT_DOUBLE_EQ(fc.evict_prob, 0.02);
    EXPECT_DOUBLE_EQ(fc.nack_prob, 0.1);
    EXPECT_EQ(fc.max_extra_nacks, 4);

    // The default mix and every built-in recovery and chaos campaign
    // level print as they always have: these strings name the runs in
    // BENCH meta and repro lines.
    for (auto [spec, summary] : std::initializer_list<
             std::pair<const char *, const char *>>{
             {"default",
              "seed=0,jitter_prob=0.2,jitter_max=64,resv_drop_prob=0.05,"
              "evict_prob=0.02,nack_prob=0.1,max_extra_nacks=4"},
             {"drop_prob=0.0002,req_timeout=2000",
              "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
              "evict_prob=0,nack_prob=0,max_extra_nacks=4,"
              "drop_prob=0.0002,flaky_links=0,flaky_window=0,"
              "flaky_duration=0,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=0,quarantine_window=0"},
             {"drop_prob=0.001,req_timeout=2000",
              "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
              "evict_prob=0,nack_prob=0,max_extra_nacks=4,"
              "drop_prob=0.001,flaky_links=0,flaky_window=0,"
              "flaky_duration=0,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=0,quarantine_window=0"},
             {"drop_prob=0.001,flaky_links=1,flaky_window=50000,"
              "flaky_duration=50000,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=2,quarantine_window=1000000000",
              "seed=0,jitter_prob=0,jitter_max=0,resv_drop_prob=0,"
              "evict_prob=0,nack_prob=0,max_extra_nacks=4,"
              "drop_prob=0.001,flaky_links=1,flaky_window=50000,"
              "flaky_duration=50000,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=2,quarantine_window=1000000000"},
             {"jitter_prob=0.001,jitter_max=8,drop_prob=0.0002,"
              "reorder_prob=0.0005,reorder_max=16,dup_prob=0.0005,"
              "dup_delay=32,corrupt_prob=0.0002,req_timeout=2000",
              "seed=0,jitter_prob=0.001,jitter_max=8,resv_drop_prob=0,"
              "evict_prob=0,nack_prob=0,max_extra_nacks=4,"
              "drop_prob=0.0002,flaky_links=0,flaky_window=0,"
              "flaky_duration=0,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=0,quarantine_window=0,reorder_prob=0.0005,"
              "reorder_max=16,dup_prob=0.0005,dup_delay=32,"
              "corrupt_prob=0.0002"},
             {"jitter_prob=0.002,jitter_max=16,drop_prob=0.0005,"
              "reorder_prob=0.001,reorder_max=32,dup_prob=0.001,"
              "dup_delay=64,corrupt_prob=0.0005,req_timeout=2000",
              "seed=0,jitter_prob=0.002,jitter_max=16,resv_drop_prob=0,"
              "evict_prob=0,nack_prob=0,max_extra_nacks=4,"
              "drop_prob=0.0005,flaky_links=0,flaky_window=0,"
              "flaky_duration=0,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=0,quarantine_window=0,reorder_prob=0.001,"
              "reorder_max=32,dup_prob=0.001,dup_delay=64,"
              "corrupt_prob=0.0005"},
             {"jitter_prob=0.005,jitter_max=32,drop_prob=0.001,"
              "flaky_links=1,flaky_window=50000,flaky_duration=50000,"
              "flaky_drop_prob=1,quarantine_k=2,"
              "quarantine_window=1000000000,reorder_prob=0.002,"
              "reorder_max=64,dup_prob=0.002,dup_delay=128,"
              "corrupt_prob=0.001,resv_max_age=200000,req_timeout=2000",
              "seed=0,jitter_prob=0.005,jitter_max=32,resv_drop_prob=0,"
              "evict_prob=0,nack_prob=0,max_extra_nacks=4,"
              "drop_prob=0.001,flaky_links=1,flaky_window=50000,"
              "flaky_duration=50000,flaky_drop_prob=1,req_timeout=2000,"
              "quarantine_k=2,quarantine_window=1000000000,"
              "reorder_prob=0.002,reorder_max=64,dup_prob=0.002,"
              "dup_delay=128,corrupt_prob=0.001,resv_max_age=200000"}}) {
        FaultConfig c;
        ASSERT_EQ(c.parse(spec), "");
        EXPECT_EQ(c.summary(), summary);
    }
}

TEST(FaultConfig, ParseKeyValueSpec)
{
    FaultConfig fc;
    EXPECT_EQ(fc.parse("nack_prob=0.5,jitter_max=16,seed=7,"
                       "max_extra_nacks=2"),
              "");
    EXPECT_TRUE(fc.enabled);
    EXPECT_DOUBLE_EQ(fc.nack_prob, 0.5);
    EXPECT_EQ(fc.msg_jitter_max, 16u);
    EXPECT_EQ(fc.seed, 7u);
    EXPECT_EQ(fc.max_extra_nacks, 2);
    // Unmentioned knobs keep their defaults.
    EXPECT_DOUBLE_EQ(fc.msg_jitter_prob, 0.0);

    // Seeds past 2^53 are read exactly, not through a double.
    EXPECT_EQ(fc.parse("seed=9007199254740993"), "");
    EXPECT_EQ(fc.seed, 9007199254740993ULL);
    EXPECT_EQ(fc.parse("seed=18446744073709551557"), "");
    EXPECT_EQ(fc.seed, 18446744073709551557ULL);

    // With every key set, 17-digit reals and the largest seed,
    // summary() round-trips through parse() field by field.
    auto fields = [](const FaultConfig &c) {
        return std::tie(c.enabled, c.seed, c.msg_jitter_prob,
                        c.msg_jitter_max, c.resv_drop_prob, c.evict_prob,
                        c.nack_prob, c.max_extra_nacks, c.msg_drop_prob,
                        c.flaky_links, c.flaky_window, c.flaky_duration,
                        c.flaky_drop_prob, c.req_timeout, c.quarantine_k,
                        c.quarantine_window, c.reorder_prob,
                        c.reorder_max, c.dup_prob, c.dup_delay,
                        c.corrupt_prob, c.resv_max_age);
    };
    FaultConfig all;
    ASSERT_EQ(all.parse("seed=18446744073709551615,"
                        "jitter_prob=0.12345678901234567,jitter_max=7,"
                        "resv_drop_prob=0.30000000000000004,"
                        "evict_prob=1e-17,nack_prob=0.1,"
                        "max_extra_nacks=-2147483648,"
                        "drop_prob=0.00020000000000000001,flaky_links=3,"
                        "flaky_window=18446744073709551615,"
                        "flaky_duration=9007199254740993,"
                        "flaky_drop_prob=0.99999999999999989,"
                        "req_timeout=2001,quarantine_k=2147483647,"
                        "quarantine_window=1000000001,"
                        "reorder_prob=2.2250738585072014e-308,"
                        "reorder_max=17,dup_prob=0.6666666666666666,"
                        "dup_delay=33,corrupt_prob=0.0001234567890123456,"
                        "resv_max_age=200001"),
              "");
    FaultConfig back;
    ASSERT_EQ(back.parse(all.summary()), "") << all.summary();
    EXPECT_TRUE(fields(back) == fields(all)) << all.summary();
    EXPECT_EQ(back.summary(), all.summary());
}

TEST(FaultConfig, ParseErrors)
{
    FaultConfig fc;
    EXPECT_NE(fc.parse("bogus").find("not key=value"),
              std::string::npos);
    EXPECT_NE(fc.parse("nack_prob=abc").find("not a number"),
              std::string::npos);
    EXPECT_NE(fc.parse("zorp=1").find("unknown fault spec key"),
              std::string::npos);

    // Values are read by the field's type: integers exactly (no
    // fraction, no sign on an unsigned field, nothing out of range),
    // reals only when finite, and no key but credit_threshold takes a
    // word. The error names the key and the value.
    for (auto [key, value] : std::initializer_list<
             std::pair<const char *, const char *>>{
             {"seed", "18446744073709551616"},
             {"seed", "-1"},
             {"seed", "1.5"},
             {"seed", "auto"},
             {"jitter_max", "-3"},
             {"req_timeout", "2e3"},
             {"max_extra_nacks", "2.5"},
             {"flaky_links", "4294967297"},
             {"jitter_prob", "nan"},
             {"jitter_prob", "-nan"},
             {"nack_prob", "inf"},
             {"drop_prob", "1e999"},
             {"corrupt_prob", "0x"}}) {
        FaultConfig r;
        std::string err = r.parse(csprintf("%s=%s", key, value));
        EXPECT_NE(err.find(csprintf("'%s' for '%s'", value, key)),
                  std::string::npos)
            << key << "=" << value << ": " << err;
        EXPECT_FALSE(r.enabled) << "a failed parse leaves the config";
    }
}

TEST(FaultConfig, ValidateRejectsBadProbability)
{
    Config cfg;
    EXPECT_EQ(cfg.faults.parse("nack_prob=1.5"), "");
    EXPECT_EQ(cfg.validate(),
              "faults.nack_prob must be in [0, 1], got 1.5");
}

TEST(FaultInjection, ZeroCostWhenOff)
{
    // System owns each optional subsystem only while its Config section
    // turns it on: the accessor's null pointer is the "off" flag.
    enum : unsigned
    {
        FAULTS = 1,
        RECOVERY = 2,
        WATCHDOG = 4,
        TELEMETRY = 8,
        LINE_PROF = 16,
        ADMISSION = 32,
        ALL = 63,
    };
    auto faults = [](Config &c) { ASSERT_EQ(c.faults.parse("1"), ""); };
    auto recovery = [](Config &c) {
        ASSERT_EQ(c.faults.parse("drop_prob=0.001,req_timeout=2000"), "");
    };
    auto watchdog = [](Config &c) {
        c.watchdog.enabled = true;
        c.watchdog.max_retries = 100000;
    };
    auto telemetry = [](Config &c) { c.telemetry.enabled = true; };
    auto openloop = [](Config &c) {
        ASSERT_EQ(c.openloop.parse("rate=0.01"), "");
    };
    struct Case
    {
        const char *what;
        std::function<void(Config &)> arm;
        unsigned owned;
    };
    const Case cases[] = {
        {"all off", [](Config &) {}, 0},
        {"faults", faults, FAULTS},
        {"faults + req_timeout", recovery, FAULTS | RECOVERY},
        {"watchdog", watchdog, WATCHDOG},
        {"telemetry", telemetry, TELEMETRY | LINE_PROF},
        {"openloop", openloop, ADMISSION},
        {"all on",
         [&](Config &c) {
             recovery(c);
             watchdog(c);
             telemetry(c);
             openloop(c);
         },
         ALL},
    };
    for (const Case &oc : cases) {
        SCOPED_TRACE(oc.what);
        Config cfg = smallConfig();
        oc.arm(cfg);
        System sys(cfg);
        EXPECT_EQ(sys.faults() != nullptr, (oc.owned & FAULTS) != 0);
        EXPECT_EQ(sys.recovery() != nullptr, (oc.owned & RECOVERY) != 0);
        EXPECT_EQ(sys.watchdog() != nullptr, (oc.owned & WATCHDOG) != 0);
        EXPECT_EQ(sys.telemetry() != nullptr,
                  (oc.owned & TELEMETRY) != 0);
        EXPECT_EQ(sys.lineProfiler() != nullptr,
                  (oc.owned & LINE_PROF) != 0);
        EXPECT_EQ(sys.admission() != nullptr,
                  (oc.owned & ADMISSION) != 0);
        EXPECT_TRUE(checkFaultAccounting(sys).empty());
        if (oc.owned == 0) {
            // Nothing observes the per-op stream, so spins may park.
            EXPECT_TRUE(sys.spinElision());
            CounterAppResult r = runCounter(sys, Primitive::FAP, 4, 4);
            ASSERT_TRUE(r.completed);
            EXPECT_TRUE(r.correct);
            // The stats registry must not even mention the fault domain.
            EXPECT_EQ(sys.statsJson().find("fault."), std::string::npos);
            EXPECT_TRUE(checkFaultAccounting(sys).empty());
        }
        // clearStats() skips what is not owned and resets what is.
        if (oc.owned == 0 || oc.owned == ALL)
            sys.clearStats();
    }
}

TEST(FaultInjection, DeterministicAtFixedSeed)
{
    SyncConfig sync;
    std::string json[2];
    Tick end[2];
    for (int i = 0; i < 2; ++i) {
        System sys(faultyConfig(sync, 42));
        CounterAppResult r = runCounter(sys, Primitive::LLSC, 4, 4);
        ASSERT_TRUE(r.completed);
        EXPECT_TRUE(r.correct);
        json[i] = sys.statsJson();
        end[i] = r.elapsed;
    }
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(end[0], end[1]);
}

TEST(FaultInjection, DifferentSeedsDiverge)
{
    SyncConfig sync;
    std::uint64_t jitter[2];
    for (int i = 0; i < 2; ++i) {
        System sys(faultyConfig(sync, 100 + i));
        CounterAppResult r = runCounter(sys, Primitive::CAS, 4, 4);
        ASSERT_TRUE(r.completed);
        jitter[i] = sys.faults()->counters().jitter_cycles;
    }
    EXPECT_NE(jitter[0], jitter[1]);
}

TEST(FaultInjection, CampaignAcrossImplMatrix)
{
    std::uint64_t total_injected = 0;
    for (const ImplCase &impl : applicationMatrix()) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Config cfg = faultyConfig(impl.sync, seed);
            cfg.watchdog.enabled = true;
            cfg.watchdog.max_retries = 100000;
            cfg.watchdog.max_txn_age = 5'000'000;
            cfg.watchdog.scan_period = 50'000;
            System sys(cfg);
            CounterAppResult r = runCounter(sys, impl.prim, 4, 2);
            ASSERT_TRUE(r.completed)
                << impl.label << " seed " << seed << ":\n"
                << (sys.watchdog()->tripped()
                        ? sys.watchdog()->diagnosis()
                        : Watchdog::blockedTxnDump(sys));
            EXPECT_TRUE(r.correct) << impl.label << " seed " << seed;
            for (const std::string &v : checkCoherence(sys))
                ADD_FAILURE() << impl.label << " seed " << seed << ": "
                              << v;
            for (const std::string &v : checkFaultAccounting(sys))
                ADD_FAILURE() << impl.label << " seed " << seed << ": "
                              << v;
            const FaultPlan::Counters &c = sys.faults()->counters();
            total_injected += c.nacks_injected + c.resv_drops +
                              c.forced_evictions + c.jitter_applied;
            EXPECT_FALSE(sys.watchdog()->tripped())
                << impl.label << " seed " << seed << ":\n"
                << sys.watchdog()->diagnosis();
        }
    }
    // The campaign must actually have exercised the fault paths.
    EXPECT_GT(total_injected, 0u);
}

TEST(Watchdog, DeadlockDetectedAndDiagnosed)
{
    Config cfg = smallConfig();
    cfg.txn_trace.enabled = true;
    System sys(cfg);
    Addr a = sys.allocAt(0, 8);
    // Black-hole the home node: node 1's GET_X vanishes, the event
    // queue drains, and the run must report a deadlock, not hang.
    sys.mesh().setHandler(0, [](const Msg &) {});
    sys.spawn(doStore(sys.proc(1), a, 7));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_NE(r.diagnosis.find("deadlock"), std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("node 1"), std::string::npos)
        << r.diagnosis;
    sys.reapTasks();
}

TEST(Watchdog, LivelockRetryBoundTrips)
{
    Config cfg = smallConfig();
    // Every NACKable request is NACKed forever (no streak cap): a true
    // livelock. The retry bound must trip and name the victim.
    ASSERT_EQ(cfg.faults.parse("nack_prob=1.0,max_extra_nacks=0"), "");
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 10;
    System sys(cfg);
    Addr a = sys.allocAt(0, 8);
    sys.spawn(doStore(sys.proc(1), a, 7));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.livelocked);
    EXPECT_NE(r.diagnosis.find("retry bound"), std::string::npos)
        << r.diagnosis;
    EXPECT_NE(r.diagnosis.find("node 1"), std::string::npos)
        << r.diagnosis;
    EXPECT_EQ(*sys.watchdog()->tripsCounter(), 1u);
    sys.reapTasks();
}

TEST(Watchdog, LivelockAgeBoundTrips)
{
    Config cfg = smallConfig();
    ASSERT_EQ(cfg.faults.parse("nack_prob=1.0,max_extra_nacks=0"), "");
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 0; // retry bound off; age bound only
    cfg.watchdog.max_txn_age = 2000;
    cfg.watchdog.scan_period = 100;
    System sys(cfg);
    Addr a = sys.allocAt(0, 8);
    sys.spawn(doStore(sys.proc(1), a, 7));
    RunResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.livelocked);
    EXPECT_NE(r.diagnosis.find("age bound"), std::string::npos)
        << r.diagnosis;
    sys.reapTasks();
}

TEST(Watchdog, QuietOnHealthyRun)
{
    Config cfg = smallConfig();
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = 100000;
    cfg.watchdog.max_txn_age = 5'000'000;
    cfg.watchdog.scan_period = 10'000;
    System sys(cfg);
    CounterAppResult r = runCounter(sys, Primitive::FAP, 4, 4);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.correct);
    EXPECT_FALSE(sys.watchdog()->tripped());
    EXPECT_EQ(*sys.watchdog()->tripsCounter(), 0u);
}
