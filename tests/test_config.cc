/** @file Unit tests for configuration validation and labels. */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/config.hh"

using namespace dsm;

TEST(Config, EnumNames)
{
    EXPECT_STREQ(toString(SyncPolicy::INV), "INV");
    EXPECT_STREQ(toString(SyncPolicy::UPD), "UPD");
    EXPECT_STREQ(toString(SyncPolicy::UNC), "UNC");
    EXPECT_STREQ(toString(CasVariant::PLAIN), "INV");
    EXPECT_STREQ(toString(CasVariant::DENY), "INVd");
    EXPECT_STREQ(toString(CasVariant::SHARE), "INVs");
    EXPECT_STREQ(toString(Primitive::FAP), "FAP");
    EXPECT_STREQ(toString(Primitive::LLSC), "LLSC");
    EXPECT_STREQ(toString(Primitive::CAS), "CAS");
}

TEST(Config, SyncLabelComposition)
{
    SyncConfig sc;
    EXPECT_EQ(sc.label(), "INV");
    sc.cas_variant = CasVariant::DENY;
    EXPECT_EQ(sc.label(), "INVd");
    sc.cas_variant = CasVariant::PLAIN;
    sc.use_load_exclusive = true;
    EXPECT_EQ(sc.label(), "INV+lx");
    sc.use_drop_copy = true;
    EXPECT_EQ(sc.label(), "INV+lx+dc");
    sc.policy = SyncPolicy::UNC;
    sc.use_load_exclusive = false;
    sc.use_drop_copy = false;
    EXPECT_EQ(sc.label(), "UNC");
}

TEST(Config, DefaultMachineValidates)
{
    MachineConfig mc;
    mc.validate(); // must not exit
    SUCCEED();
}

TEST(ConfigDeath, BadMeshIsFatal)
{
    MachineConfig mc;
    mc.num_procs = 16;
    mc.mesh_x = 3;
    mc.mesh_y = 4;
    EXPECT_EXIT(mc.validate(), testing::ExitedWithCode(1),
                "does not cover");
}

TEST(ConfigDeath, TooManyProcsIsFatal)
{
    MachineConfig mc;
    mc.num_procs = 65;
    mc.mesh_x = 65;
    mc.mesh_y = 1;
    EXPECT_EXIT(mc.validate(), testing::ExitedWithCode(1), "num_procs");
}

TEST(ConfigDeath, NonPowerOfTwoSetsIsFatal)
{
    MachineConfig mc;
    mc.cache_sets = 48;
    EXPECT_EXIT(mc.validate(), testing::ExitedWithCode(1), "cache_sets");
}

// Config::validate() returns one descriptive message per defect instead
// of exiting, so callers (System's constructor, tests, tools) can
// surface it however they like.

TEST(ConfigValidate, DefaultConfigIsValid)
{
    Config cfg;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ConfigValidate, ReportsProcRange)
{
    Config cfg;
    cfg.machine.num_procs = 65;
    cfg.machine.mesh_x = 65;
    cfg.machine.mesh_y = 1;
    EXPECT_EQ(cfg.validate(), "num_procs must be in [1, 64], got 65");
    cfg.machine.num_procs = 0;
    cfg.machine.mesh_x = 0;
    EXPECT_EQ(cfg.validate(), "num_procs must be in [1, 64], got 0");
}

TEST(ConfigValidate, ReportsMeshMismatch)
{
    Config cfg;
    cfg.machine.num_procs = 16;
    cfg.machine.mesh_x = 3;
    cfg.machine.mesh_y = 4;
    EXPECT_EQ(cfg.validate(), "mesh 3x4 does not cover 16 procs");
}

TEST(ConfigValidate, ReportsBadCacheGeometry)
{
    Config cfg;
    cfg.machine.cache_sets = 48;
    EXPECT_EQ(cfg.validate(),
              "cache_sets must be a nonzero power of two, got 48");
    cfg.machine.cache_sets = 64;
    cfg.machine.cache_ways = 0;
    EXPECT_EQ(cfg.validate(), "cache_ways must be nonzero");
}

TEST(ConfigValidate, ReportsZeroLatencies)
{
    Config cfg;
    cfg.machine.mem_service_time = 0;
    EXPECT_EQ(cfg.validate(), "mem_service_time must be nonzero");
    cfg.machine.mem_service_time = 20;
    cfg.machine.flit_latency = 0;
    EXPECT_EQ(cfg.validate(), "flit_latency must be nonzero");
    cfg.machine.flit_latency = 1;
    cfg.machine.retry_delay = 0;
    EXPECT_EQ(cfg.validate(), "retry_delay must be nonzero");
}

TEST(ConfigValidate, ZeroHopLatencyIsAllowed)
{
    // hop_latency == 0 models contention-free routing and is exercised
    // by the timing-parameter sweeps; it must stay valid.
    Config cfg;
    cfg.machine.hop_latency = 0;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ConfigValidate, ReportsReservationAndTraceDefects)
{
    Config cfg;
    cfg.machine.max_memory_reservations = -1;
    EXPECT_EQ(cfg.validate(),
              "max_memory_reservations must be >= 0, got -1");
    cfg.machine.max_memory_reservations = 0;
    cfg.trace.enabled = true;
    cfg.trace.capacity = 0;
    EXPECT_EQ(cfg.validate(),
              "trace.capacity must be nonzero when tracing is enabled");
}

TEST(ConfigValidate, ReportsFaultProbabilityRange)
{
    Config cfg;
    cfg.faults.msg_jitter_prob = -0.1;
    EXPECT_EQ(cfg.validate(),
              "faults.msg_jitter_prob must be in [0, 1], got -0.1");
    cfg.faults.msg_jitter_prob = 0.0;
    cfg.faults.resv_drop_prob = 2.0;
    EXPECT_EQ(cfg.validate(),
              "faults.resv_drop_prob must be in [0, 1], got 2");
    cfg.faults.resv_drop_prob = 0.0;
    cfg.faults.evict_prob = 1.5;
    EXPECT_EQ(cfg.validate(),
              "faults.evict_prob must be in [0, 1], got 1.5");
    cfg.faults.evict_prob = 0.0;
    cfg.faults.nack_prob = 1.01;
    EXPECT_EQ(cfg.validate(),
              "faults.nack_prob must be in [0, 1], got 1.01");
    cfg.faults.nack_prob = 0.0;
    // One check covers all nine, and a NaN set in code fails it too.
    cfg.faults.corrupt_prob = std::nan("");
    EXPECT_EQ(cfg.validate(),
              "faults.corrupt_prob must be in [0, 1], got nan");
    cfg.faults.corrupt_prob = 0.0;
    cfg.faults.flaky_drop_prob = -std::nan("");
    EXPECT_EQ(cfg.validate(),
              "faults.flaky_drop_prob must be in [0, 1], got -nan");
}

TEST(ConfigValidate, ReportsJitterBoundDefects)
{
    Config cfg;
    cfg.faults.enabled = true;
    cfg.faults.msg_jitter_prob = 0.5;
    cfg.faults.msg_jitter_max = 0;
    EXPECT_EQ(cfg.validate(),
              "faults.msg_jitter_max must be nonzero when "
              "faults.msg_jitter_prob > 0");
    cfg.faults.msg_jitter_max = FAULT_JITTER_HORIZON + 1;
    EXPECT_EQ(cfg.validate(),
              "faults.msg_jitter_max must be <= 1048576 (the "
              "event-queue jitter horizon), got 1048577");
    cfg.faults.msg_jitter_max = 64;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ConfigValidate, ReportsNackCapDefect)
{
    Config cfg;
    cfg.faults.max_extra_nacks = -3;
    EXPECT_EQ(cfg.validate(),
              "faults.max_extra_nacks must be >= 0, got -3");
}

TEST(ConfigValidate, ReportsWatchdogDefects)
{
    Config cfg;
    cfg.watchdog.enabled = true;
    cfg.watchdog.max_retries = -1;
    EXPECT_EQ(cfg.validate(),
              "watchdog.max_retries must be >= 0, got -1");
    cfg.watchdog.max_retries = 0;
    cfg.watchdog.max_txn_age = 0;
    EXPECT_EQ(cfg.validate(),
              "watchdog enabled but both max_retries and max_txn_age "
              "are 0; set at least one bound");
    cfg.watchdog.max_txn_age = 1000;
    cfg.watchdog.scan_period = 0;
    EXPECT_EQ(cfg.validate(),
              "watchdog.scan_period must be nonzero when max_txn_age "
              "is set");
    cfg.watchdog.scan_period = 100;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(ConfigValidate, DisabledFaultKnobsStillRangeChecked)
{
    // Probability ranges are checked even with injection disabled so a
    // typo in a sweep config fails fast rather than silently when the
    // campaign later flips `enabled` on.
    Config cfg;
    ASSERT_FALSE(cfg.faults.enabled);
    cfg.faults.nack_prob = 7.0;
    EXPECT_EQ(cfg.validate(),
              "faults.nack_prob must be in [0, 1], got 7");
}
