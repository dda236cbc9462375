/**
 * @file
 * Tests for the stats registry's snapshot/diff and JSON rendering, the
 * LatencyStat percentiles, and the dsm-bench-v1 BenchReport schema.
 */

#include <cstdio>
#include <cstdlib>

#include "helpers.hh"
#include "json_parse.hh"
#include "stats/bench_report.hh"
#include "stats/registry.hh"

namespace {

using namespace dsmtest;

TEST(StatsRegistryUnit, SnapshotAndDiff)
{
    std::uint64_t raw = 5;
    Histogram hist;
    hist.add(3);
    hist.add(5);
    LatencyStat lat;
    lat.sample(10);

    StatsRegistry reg;
    reg.addCounter("a.count", &raw);
    reg.addCounter("b.derived", [&raw] { return raw * 2; });
    reg.addHistogram("a.hist", &hist);
    reg.addLatency("a.lat", &lat);
    EXPECT_EQ(reg.size(), 4u);

    StatsRegistry::Snapshot s0 = reg.snapshot();
    EXPECT_EQ(s0.at("a.count"), 5u);
    EXPECT_EQ(s0.at("b.derived"), 10u);
    EXPECT_EQ(s0.at("a.hist.samples"), 2u);
    EXPECT_EQ(s0.at("a.hist.sum"), 8u);
    EXPECT_EQ(s0.at("a.lat.count"), 1u);
    EXPECT_EQ(s0.at("a.lat.sum"), 10u);

    raw = 9;
    hist.add(2);
    lat.sample(4);

    StatsRegistry::Snapshot s1 = reg.snapshot();
    StatsRegistry::Snapshot d = StatsRegistry::diff(s1, s0);
    EXPECT_EQ(d.at("a.count"), 4u);
    EXPECT_EQ(d.at("b.derived"), 8u);
    EXPECT_EQ(d.at("a.hist.samples"), 1u);
    EXPECT_EQ(d.at("a.hist.sum"), 2u);
    EXPECT_EQ(d.at("a.lat.count"), 1u);
    EXPECT_EQ(d.at("a.lat.sum"), 4u);

    // Keys missing from `before` count as zero.
    s0.erase("a.count");
    d = StatsRegistry::diff(s1, s0);
    EXPECT_EQ(d.at("a.count"), 9u);
}

TEST(StatsRegistryUnit, NestedJsonFromDottedPaths)
{
    std::uint64_t one = 1, two = 2, three = 3, four = 4;
    StatsRegistry reg;
    reg.addCounter("a.b", &one);
    reg.addCounter("a.c.d", &two);
    reg.addCounter("a.c.e", &three);
    reg.addCounter("z", &four);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(reg.toJson(), &root));
    ASSERT_TRUE(root.isObject());
    const JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->num("b"), 1.0);
    const JsonValue *c = a->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->num("d"), 2.0);
    EXPECT_EQ(c->num("e"), 3.0);
    EXPECT_EQ(root.num("z"), 4.0);
}

TEST(LatencyStatUnit, PercentilesBracketTheDistribution)
{
    LatencyStat lat;
    for (Tick t = 1; t <= 1000; ++t)
        lat.sample(t);

    EXPECT_EQ(lat.count, 1000u);
    EXPECT_DOUBLE_EQ(lat.mean(), 500.5);
    EXPECT_EQ(lat.max, 1000u);

    // Percentiles come from 8-cycle buckets: exact to within one
    // bucket, never above the true max.
    EXPECT_NEAR(static_cast<double>(lat.p50()), 500.0, 8.0);
    EXPECT_NEAR(static_cast<double>(lat.p95()), 950.0, 8.0);
    EXPECT_NEAR(static_cast<double>(lat.p99()), 990.0, 8.0);
    EXPECT_LE(lat.p50(), lat.p95());
    EXPECT_LE(lat.p95(), lat.p99());
    EXPECT_LE(lat.p99(), lat.max);

    // A single-sample stat reports that sample everywhere.
    LatencyStat single;
    single.sample(42);
    EXPECT_EQ(single.p50(), 42u);
    EXPECT_EQ(single.p99(), 42u);
}

TEST(StatsJson, SystemRegistryJsonParses)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::STORE, a, 7);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(sys.statsJson(), &root));

    const JsonValue *net = root.find("net");
    ASSERT_NE(net, nullptr);
    EXPECT_GT(net->num("messages"), 0.0);
    EXPECT_GT(net->num("flits"), 0.0);

    const JsonValue *sim = root.find("sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_GT(sim->num("ticks"), 0.0);

    // Every node contributes a full subtree.
    for (int n = 0; n < 4; ++n) {
        const JsonValue *node = root.find("node" + std::to_string(n));
        ASSERT_NE(node, nullptr) << "node" << n;
        ASSERT_TRUE(node->has("proto"));
        ASSERT_TRUE(node->has("cache"));
        ASSERT_TRUE(node->has("mem"));
        const JsonValue *proto = node->find("proto");
        ASSERT_TRUE(proto->has("nacks"));
        ASSERT_TRUE(proto->has("chain_length"));
    }
}

TEST(StatsJson, ChainCountsMatchTable1ViaJson)
{
    // The Table 1 single-store experiments, read back through the
    // registry JSON instead of the C++ stats object.
    auto chainFromJson = [](System &sys) {
        JsonValue root;
        if (!parseJsonOrFail(sys.statsJson(), &root))
            return -1.0;
        double max_chain = 0;
        for (const auto &[key, node] : root.object) {
            if (key.rfind("node", 0) != 0)
                continue;
            const JsonValue *proto = node.find("proto");
            if (proto == nullptr)
                continue;
            const JsonValue *chain = proto->find("chain_length");
            if (chain != nullptr)
                max_chain = std::max(max_chain, chain->num("max", 0.0));
        }
        return max_chain;
    };

    {
        // UNC store: request + reply = 2 serialized messages.
        System sys(smallConfig(SyncPolicy::UNC, 4));
        Addr a = sys.allocSyncAt(3);
        runOp(sys, 0, AtomicOp::STORE, a, 1);
        EXPECT_EQ(chainFromJson(sys), 2.0);
        EXPECT_EQ(sys.stats().chain_length.max(), 2u);
    }
    {
        // INV store to a line held exclusive by a third node: 4.
        System sys(smallConfig(SyncPolicy::INV, 4));
        Addr a = sys.allocSyncAt(3);
        runOp(sys, 1, AtomicOp::STORE, a, 1); // node 1 takes ownership
        sys.clearStats();
        runOp(sys, 0, AtomicOp::STORE, a, 2);
        EXPECT_EQ(chainFromJson(sys), 4.0);
        EXPECT_EQ(sys.stats().chain_length.max(), 4u);
    }
}

TEST(StatsJson, ClearStatsResetsProtocolButNotMesh)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::STORE, a, 7);

    StatsRegistry::Snapshot before = sys.registry().snapshot();
    ASSERT_GT(before.at("net.messages"), 0u);
    ASSERT_GT(before.at("node0.proto.ops.store.count"), 0u);

    sys.clearStats();
    StatsRegistry::Snapshot after = sys.registry().snapshot();
    EXPECT_EQ(after.at("node0.proto.ops.store.count"), 0u);
    EXPECT_EQ(after.at("net.messages"), before.at("net.messages"));
}

TEST(BenchReportTest, SchemaAndMetricsKeys)
{
    System sys(smallConfig(SyncPolicy::INV, 4));
    Addr a = sys.allocSyncAt(3);
    runOp(sys, 0, AtomicOp::FAA, a, 1);
    RunMetrics m = collectRunMetrics(sys);
    EXPECT_EQ(m.ops, 1u);
    EXPECT_GT(m.messages, 0u);
    EXPECT_GT(m.mean_latency, 0.0);

    BenchReport rep("unittest");
    rep.meta("procs", 4);
    rep.meta("label", "schema check");
    rep.row().set("impl", "INV FAA").set("point", "c=1").metrics(m);
    rep.row().set("impl", "INV FAA").set("point", "c=2").metrics(m);
    ASSERT_EQ(rep.numRows(), 2u);

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(rep.toJson(), &root));
    EXPECT_EQ(root.str("schema"), "dsm-bench-v1");
    EXPECT_EQ(root.str("bench"), "unittest");

    const JsonValue *meta = root.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->num("procs"), 4.0);
    EXPECT_EQ(meta->str("label"), "schema check");

    const JsonValue *results = root.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_TRUE(results->isArray());
    ASSERT_EQ(results->array.size(), 2u);
    const JsonValue &row = results->array[0];
    EXPECT_EQ(row.str("impl"), "INV FAA");
    EXPECT_EQ(row.str("point"), "c=1");
    for (const char *key :
         {"ops", "mean_latency", "p50", "p95", "p99", "max_latency",
          "messages", "flits", "nacks", "retries", "invalidations",
          "updates", "ticks"})
        EXPECT_TRUE(row.has(key)) << "missing metric key " << key;
    EXPECT_EQ(row.num("ops"), 1.0);
    EXPECT_EQ(row.num("messages"), static_cast<double>(m.messages));
}

TEST(BenchReportTest, WritesBenchJsonToDsmBenchDir)
{
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(::setenv("DSM_BENCH_DIR", dir.c_str(), 1), 0);

    BenchReport rep("writetest");
    rep.meta("procs", 4);
    rep.row().set("impl", "x").set("value", 1.5);
    std::string path = rep.write();
    ::unsetenv("DSM_BENCH_DIR");

    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path, dir + "/BENCH_writetest.json");

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "report file not written: " << path;
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    JsonValue root;
    ASSERT_TRUE(parseJsonOrFail(content, &root));
    EXPECT_EQ(root.str("schema"), "dsm-bench-v1");
    EXPECT_EQ(root.str("bench"), "writetest");

    // Empty or unset means the current directory, never the root.
    ASSERT_EQ(::setenv("DSM_BENCH_DIR", "", 1), 0);
    EXPECT_EQ(benchOutputPath("MC_DUMP_x.txt"), "./MC_DUMP_x.txt");
    ::unsetenv("DSM_BENCH_DIR");
    EXPECT_EQ(benchOutputPath("MC_DUMP_x.txt"), "./MC_DUMP_x.txt");
}

} // namespace
