/**
 * @file
 * Spin elision must be invisible in every simulated result: each case
 * runs twice, with machine.spin_elision on and off, and compares the
 * stats JSON, the RunResult and the final memory image byte for byte.
 * The TC cases also check that elision really engages.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "helpers.hh"
#include "sync/central_barrier.hh"
#include "sync/tree_barrier.hh"
#include "workloads/counter_apps.hh"
#include "workloads/transitive_closure.hh"

using namespace dsmtest;

namespace {

/** Everything a run leaves behind that elision must not change. */
struct Outcome
{
    std::string stats;
    std::string telemetry;
    RunResult run;
    std::vector<Word> memory;
    std::uint64_t elided = 0;
    std::uint64_t hits = 0;
};

/** Drives one scenario on @p sys; returns the last System::run result. */
using Scenario = std::function<RunResult(System &)>;

Outcome
runOnce(Config cfg, bool elide, const Scenario &scenario)
{
    cfg.machine.spin_elision = elide;
    System sys(cfg);
    Outcome o;
    o.run = scenario(sys);
    o.stats = sys.statsJson();
    if (sys.telemetry() != nullptr)
        o.telemetry = sys.telemetryJson();
    // Every allocated word: the next allocation marks the end.
    Addr end = sys.alloc(WORD_BYTES);
    for (Addr a = 0; a < end; a += WORD_BYTES)
        o.memory.push_back(sys.debugRead(a));
    o.elided = sys.eq().eventsElided();
    for (NodeId n = 0; n < sys.numProcs(); ++n)
        o.hits += sys.ctrl(n).cache().stats().hits;
    return o;
}

/** Run @p scenario with elision on and off; expect identical results. */
Outcome
expectSameWithElision(const Config &cfg, const Scenario &scenario)
{
    Outcome on = runOnce(cfg, true, scenario);
    Outcome off = runOnce(cfg, false, scenario);
    EXPECT_EQ(off.elided, 0u);
    EXPECT_EQ(on.stats, off.stats);
    EXPECT_EQ(on.telemetry, off.telemetry);
    EXPECT_EQ(on.run.completed, off.run.completed);
    EXPECT_EQ(on.run.deadlocked, off.run.deadlocked);
    EXPECT_EQ(on.run.livelocked, off.run.livelocked);
    EXPECT_EQ(on.run.end_tick, off.run.end_tick);
    EXPECT_EQ(on.run.events, off.run.events);
    EXPECT_EQ(on.run.diagnosis, off.run.diagnosis);
    EXPECT_EQ(on.memory, off.memory);
    return on;
}

Config
paperConfig(const ImplCase &impl, std::uint64_t seed)
{
    Config cfg;
    cfg.sync = impl.sync;
    cfg.machine.seed = seed;
    return cfg;
}

Scenario
tcScenario(Primitive prim, std::uint64_t seed)
{
    return [prim, seed](System &sys) {
        TcConfig tc;
        tc.size = 10;
        tc.prim = prim;
        tc.seed = 42 + seed;
        TcResult r = runTransitiveClosure(sys, tc);
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.correct);
        RunResult rr;
        rr.completed = r.completed;
        rr.end_tick = sys.now();
        rr.events = sys.eq().eventsExecuted();
        return rr;
    };
}

Scenario
counterScenario(CounterKind kind, Primitive prim)
{
    return [kind, prim](System &sys) {
        CounterAppConfig app;
        app.kind = kind;
        app.prim = prim;
        app.contention = 8;
        app.phases = 6;
        CounterAppResult r = runCounterApp(sys, app);
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.correct);
        RunResult rr;
        rr.completed = r.completed;
        rr.end_tick = sys.now();
        rr.events = sys.eq().eventsExecuted();
        return rr;
    };
}

template <typename Barrier>
Task
barrierWorker(Proc &p, Barrier &bar, int rounds)
{
    for (int r = 0; r < rounds; ++r) {
        // Unequal work, so early arrivers spin for a while.
        co_await p.compute(1 + (static_cast<Tick>(p.id()) * 37 +
                                static_cast<Tick>(r) * 11) %
                                   97);
        co_await bar.arrive(p);
    }
}

/** Spin until the flag reaches @p target, then record what was read. */
Task
flagWaiter(Proc &p, Addr flag, Word target, Word *seen)
{
    OpResult r = co_await p.spinWhile(
        flag, [target](Word v) { return v < target; });
    *seen = r.value;
}

/** Raise the flag one step at a time, pausing between steps. */
Task
flagRaiser(Proc &p, Addr flag, Word steps)
{
    for (Word v = 1; v <= steps; ++v) {
        co_await p.compute(150);
        co_await p.store(flag, v);
    }
}

} // namespace

class TcElision
    : public testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(TcElision, MatchesUnelidedAndEngages)
{
    auto [index, seed] = GetParam();
    ImplCase impl = applicationMatrix()[static_cast<std::size_t>(index)];
    SCOPED_TRACE(impl.label);
    Outcome on = expectSameWithElision(paperConfig(impl, seed),
                                       tcScenario(impl.prim, seed));
    // Nearly every hit is a barrier or flag re-read: if elision quietly
    // stopped engaging, this fails.
    EXPECT_GT(static_cast<double>(on.elided),
              0.99 * static_cast<double>(on.hits));
}

INSTANTIATE_TEST_SUITE_P(
    AllImplsSeeds, TcElision,
    testing::Combine(testing::Range(0, 9),
                     testing::Values<std::uint64_t>(0, 1, 2, 3)));

class CounterElision
    : public testing::TestWithParam<std::tuple<CounterKind, int>>
{
};

TEST_P(CounterElision, MatchesUnelided)
{
    auto [kind, index] = GetParam();
    ImplCase impl = applicationMatrix()[static_cast<std::size_t>(index)];
    SCOPED_TRACE(impl.label);
    Outcome on = expectSameWithElision(paperConfig(impl, 1),
                                       counterScenario(kind, impl.prim));
    // A UNC lock word is never cached, so only the MCS queue flags
    // (ordinary data) can park there.
    if (kind == CounterKind::MCS || impl.sync.policy != SyncPolicy::UNC) {
        EXPECT_GT(on.elided, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    TtsAndMcs, CounterElision,
    testing::Combine(testing::Values(CounterKind::TTS, CounterKind::MCS),
                     testing::Range(0, 9)));

class BarrierElision : public testing::TestWithParam<SyncPolicy>
{
};

TEST_P(BarrierElision, CentralBarrierMatchesUnelided)
{
    Config cfg = smallConfig(GetParam(), 16);
    Outcome on = expectSameWithElision(cfg, [](System &sys) {
        CentralBarrier bar(sys, Primitive::FAP, 16);
        for (NodeId n = 0; n < 16; ++n)
            sys.spawn(barrierWorker(sys.proc(n), bar, 5));
        return sys.run();
    });
    if (GetParam() != SyncPolicy::UNC) {
        EXPECT_GT(on.elided, 0u);
    }
}

TEST_P(BarrierElision, TreeBarrierMatchesUnelided)
{
    Config cfg = smallConfig(GetParam(), 16);
    Outcome on = expectSameWithElision(cfg, [](System &sys) {
        TreeBarrier bar(sys, 16);
        for (NodeId n = 0; n < 16; ++n)
            sys.spawn(barrierWorker(sys.proc(n), bar, 5));
        return sys.run();
    });
    // Tree-barrier flags are ordinary data: cached under every policy.
    EXPECT_GT(on.elided, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, BarrierElision,
                         testing::Values(SyncPolicy::INV, SyncPolicy::UNC,
                                         SyncPolicy::UPD));

TEST(SpinElision, UpdateLandsInPlaceUnderUpd)
{
    // Under UPD the writer's update refreshes the spinner's cached copy
    // in place: each update wakes the spinner, which re-parks on the
    // new value until the last step breaks the loop.
    Config cfg = smallConfig(SyncPolicy::UPD, 4);
    Word seen = 0;
    Outcome on = expectSameWithElision(cfg, [&seen](System &sys) {
        Addr flag = sys.allocSync();
        sys.spawn(flagWaiter(sys.proc(0), flag, 3, &seen));
        sys.spawn(flagRaiser(sys.proc(1), flag, 3));
        return sys.run();
    });
    EXPECT_EQ(seen, 3u);
    EXPECT_GT(on.elided, 300u);
}

TEST(SpinElision, TelemetryWindowsMatch)
{
    ImplCase impl = applicationMatrix()[3];
    Config cfg = paperConfig(impl, 0);
    cfg.telemetry.enabled = true;
    cfg.telemetry.window = 512;
    Outcome on = expectSameWithElision(cfg, tcScenario(impl.prim, 0));
    EXPECT_FALSE(on.telemetry.empty());
    EXPECT_GT(on.elided, 0u);
}

class TieForcingElision : public testing::TestWithParam<int>
{
};

TEST_P(TieForcingElision, MatchesUnelided)
{
    // Unit latencies make message deliveries land on the same ticks as
    // the parked chains' completions, so wake-ups exercise the
    // same-tick ordering of ghost and real events.
    ImplCase impl = applicationMatrix()[static_cast<std::size_t>(GetParam())];
    SCOPED_TRACE(impl.label);
    Config cfg = paperConfig(impl, 2);
    cfg.machine.hop_latency = 1;
    cfg.machine.flit_latency = 1;
    cfg.machine.local_latency = 1;
    expectSameWithElision(cfg, tcScenario(impl.prim, 2));
    Config small = smallConfig(impl.sync.policy, 16);
    small.sync = impl.sync;
    small.machine.hop_latency = 1;
    small.machine.flit_latency = 1;
    small.machine.local_latency = 1;
    expectSameWithElision(small, [](System &sys) {
        TreeBarrier bar(sys, 16);
        for (NodeId n = 0; n < 16; ++n)
            sys.spawn(barrierWorker(sys.proc(n), bar, 4));
        return sys.run();
    });
}

INSTANTIATE_TEST_SUITE_P(AllImpls, TieForcingElision, testing::Range(0, 9));

TEST(SpinElision, MaxTicksWithAForeverSpinner)
{
    // Processor 0 spins on a flag nobody raises; the run must stop on
    // the same chunk boundary, tick and event count either way.
    for (Tick max_ticks : {Tick(5000), Tick(12345), Tick(70001)}) {
        Config cfg = smallConfig(SyncPolicy::INV, 8);
        Word seen = 0;
        Outcome on = expectSameWithElision(cfg, [&](System &sys) {
            Addr flag = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
            sys.spawn(flagWaiter(sys.proc(0), flag, 1, &seen));
            // Writes to the flag's neighbour word invalidate the
            // spinner's line (false sharing): wakes, misses, re-parks.
            for (NodeId n = 1; n < 8; ++n)
                sys.spawn(flagRaiser(sys.proc(n), flag + WORD_BYTES, 20));
            return sys.run(max_ticks);
        });
        EXPECT_FALSE(on.run.completed);
        EXPECT_GT(on.elided, 0u);
    }
}

TEST(SpinElision, PerOpObserversDisableIt)
{
    Config cfg = smallConfig(SyncPolicy::INV, 4);
    EXPECT_TRUE(System(cfg).spinElision());
    Config traced = cfg;
    traced.txn_trace.enabled = true;
    EXPECT_FALSE(System(traced).spinElision());
    Config watched = cfg;
    watched.watchdog.enabled = true;
    watched.watchdog.max_retries = 1000;
    EXPECT_FALSE(System(watched).spinElision());
    Config off = cfg;
    off.machine.spin_elision = false;
    EXPECT_FALSE(System(off).spinElision());
}
