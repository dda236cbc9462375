/**
 * @file
 * Tests for the cross-run perf-regression harness: identical reports
 * pass, a synthetic 10% throughput/latency regression is detected,
 * absolute slack absorbs tiny-count jitter, structural mismatches are
 * errors, and directory comparison matches snapshots by filename. Also
 * covers the provenance (git sha, wall time, host cores) that written
 * dsm-bench-v1 reports carry while toJson() stays byte-stable.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "sim/json.hh"
#include "stats/bench_diff.hh"
#include "stats/bench_report.hh"

namespace {

using dsm::BenchReport;
using dsm::DiffOptions;
using dsm::DiffResult;

dsm::JsonValue
parsed(const std::string &text)
{
    dsm::JsonValue v;
    std::string err;
    EXPECT_TRUE(dsm::parseJson(text, &v, &err)) << err;
    return v;
}

/** A one-row dsm-bench-v1 document with the three metrics under test. */
std::string
report(std::uint64_t ops, double mean_latency, std::uint64_t nacks,
       const char *impl = "INV FAP", const char *name = "synthetic")
{
    BenchReport rep(name);
    rep.row()
        .set("impl", impl)
        .set("point", "c=8")
        .set("ops", ops)
        .set("mean_latency", mean_latency)
        .set("nacks", nacks);
    return rep.toJson();
}

TEST(BenchDiff, IdenticalReportsPass)
{
    std::string doc = report(100000, 1000.0, 500);
    DiffResult res = dsm::diffBenchReports(parsed(doc), parsed(doc));
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.regressions.empty());
    EXPECT_TRUE(res.improvements.empty());
    EXPECT_EQ(res.rows_compared, 1);
    EXPECT_EQ(res.metrics_compared, 3);
}

TEST(BenchDiff, TenPercentThroughputDropIsARegression)
{
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(90000, 1000.0, 500)));
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_EQ(res.regressions[0].metric, "ops");
    EXPECT_NEAR(res.regressions[0].change_pct, -10.0, 0.01);
    EXPECT_EQ(res.regressions[0].row, "impl=INV FAP point=c=8");
}

TEST(BenchDiff, OnlyTheHarmfulDirectionGates)
{
    // Latency up 10% fails; latency down 10% is an improvement only.
    DiffResult worse = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(100000, 1100.0, 500)));
    EXPECT_FALSE(worse.ok());
    ASSERT_EQ(worse.regressions.size(), 1u);
    EXPECT_EQ(worse.regressions[0].metric, "mean_latency");

    DiffResult better = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(100000, 900.0, 500)));
    EXPECT_TRUE(better.ok());
    ASSERT_EQ(better.improvements.size(), 1u);
    EXPECT_EQ(better.improvements[0].metric, "mean_latency");
}

TEST(BenchDiff, AbsoluteSlackAbsorbsTinyCounts)
{
    // 2 -> 40 NACKs is +1900% but only 38 events, inside the slack.
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 2)),
        parsed(report(100000, 1000.0, 40)));
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.regressions.empty());
}

TEST(BenchDiff, ThresholdScaleLoosensTheGate)
{
    DiffOptions loose;
    loose.threshold_scale = 3.0; // ops gate becomes 15%
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(90000, 1000.0, 500)), loose);
    EXPECT_TRUE(res.ok());
}

TEST(BenchDiff, RowIdentityMismatchIsAnError)
{
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500, "INV FAP")),
        parsed(report(100000, 1000.0, 500, "UPD FAP")));
    EXPECT_FALSE(res.ok());
    ASSERT_FALSE(res.errors.empty());
    EXPECT_NE(res.errors[0].find("row identity"), std::string::npos);
    EXPECT_EQ(res.rows_compared, 0);
}

TEST(BenchDiff, BenchNameAndSchemaMismatchAreErrors)
{
    DiffResult name = dsm::diffBenchReports(
        parsed(report(1000, 10.0, 0, "x", "alpha")),
        parsed(report(1000, 10.0, 0, "x", "beta")));
    EXPECT_FALSE(name.ok());
    ASSERT_FALSE(name.errors.empty());
    EXPECT_NE(name.errors[0].find("bench name mismatch"),
              std::string::npos);

    DiffResult schema = dsm::diffBenchReports(
        parsed("{\"schema\":\"other\"}"),
        parsed(report(1000, 10.0, 0)));
    EXPECT_FALSE(schema.ok());
}

TEST(BenchDiff, RenderDiffNamesTheFindings)
{
    DiffResult res = dsm::diffBenchReports(
        parsed(report(100000, 1000.0, 500)),
        parsed(report(90000, 1100.0, 500)));
    std::string text = dsm::renderDiff(res);
    EXPECT_NE(text.find("REGRESSION"), std::string::npos);
    EXPECT_NE(text.find("ops"), std::string::npos);
    EXPECT_NE(text.find("mean_latency"), std::string::npos);
    EXPECT_NE(text.find("2 regression(s)"), std::string::npos);
}

TEST(BenchDiff, DirectoriesMatchSnapshotsByFilename)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(testing::TempDir()) / "bench_diff_dirs";
    fs::path base = root / "base", cand = root / "cand";
    fs::remove_all(root);
    fs::create_directories(base);
    fs::create_directories(cand);
    auto put = [](const fs::path &p, const std::string &text) {
        std::ofstream(p) << text;
    };

    put(base / "BENCH_alpha.json", report(1000, 10.0, 0, "x", "alpha"));
    put(base / "BENCH_beta.json", report(1000, 10.0, 0, "x", "beta"));
    put(cand / "BENCH_alpha.json", report(1000, 10.0, 0, "x", "alpha"));

    // A baseline bench missing from the candidate is an error.
    DiffResult res = dsm::diffBenchDirs(base.string(), cand.string());
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("BENCH_beta.json"), std::string::npos);
    EXPECT_EQ(res.rows_compared, 1);

    // With the counterpart present (but regressed) the directory diff
    // folds the per-file results together; extra candidate files are
    // ignored (a new bench is not a regression).
    put(cand / "BENCH_beta.json", report(500, 10.0, 0, "x", "beta"));
    put(cand / "BENCH_gamma.json", report(1, 1.0, 0, "x", "gamma"));
    res = dsm::diffBenchDirs(base.string(), cand.string());
    EXPECT_TRUE(res.errors.empty());
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_EQ(res.regressions[0].bench, "beta");
    EXPECT_EQ(res.regressions[0].metric, "ops");
    EXPECT_EQ(res.rows_compared, 2);

    // File-level comparison agrees with the directory walk.
    DiffResult one = dsm::diffBenchFiles(
        (base / "BENCH_beta.json").string(),
        (cand / "BENCH_beta.json").string());
    ASSERT_EQ(one.regressions.size(), 1u);
    EXPECT_EQ(one.regressions[0].metric, "ops");

    DiffResult missing = dsm::diffBenchFiles(
        (base / "BENCH_nope.json").string(),
        (cand / "BENCH_beta.json").string());
    EXPECT_FALSE(missing.ok());
}

// ----- written-report provenance (meta.git_sha / wall_ms / host_cores) -----

TEST(BenchReportProvenance, WrittenReportCarriesProvenance)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(testing::TempDir()) / "bench_prov";
    fs::create_directories(dir);
    setenv("DSM_BENCH_DIR", dir.string().c_str(), 1);
    setenv("DSM_GIT_SHA", "cafe1234", 1);

    BenchReport rep("prov");
    rep.meta("workload", "unit");
    rep.row().set("impl", "x").set("ops", std::uint64_t{1});

    // The in-memory document stays byte-stable (the serial-vs-parallel
    // identity tests compare it): no provenance keys.
    EXPECT_EQ(rep.toJson().find("git_sha"), std::string::npos);
    EXPECT_EQ(rep.toJson().find("wall_ms"), std::string::npos);

    std::string path = rep.write();
    ASSERT_FALSE(path.empty());
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    dsm::JsonValue root = parsed(text);
    EXPECT_EQ(root.str("schema"), "dsm-bench-v1");
    const dsm::JsonValue *meta = root.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->str("workload"), "unit"); // user meta kept first
    EXPECT_EQ(meta->str("git_sha"), "cafe1234");
    EXPECT_GE(meta->num("wall_ms"), 0.0);
    EXPECT_GE(meta->num("host_cores"), 1.0);

    unsetenv("DSM_GIT_SHA");
    unsetenv("DSM_BENCH_DIR");
}

TEST(BenchReportProvenance, EventCountsOnlyInTheWrittenFile)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(testing::TempDir()) / "bench_prov_events";
    fs::create_directories(dir);
    setenv("DSM_BENCH_DIR", dir.string().c_str(), 1);

    BenchReport rep("prov_events");
    rep.provenance("events_modelled", std::uint64_t{1000});
    rep.provenance("events_elided", std::uint64_t{990});
    EXPECT_EQ(rep.toJson().find("events_"), std::string::npos);

    std::string path = rep.write();
    ASSERT_FALSE(path.empty());
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    dsm::JsonValue root = parsed(text);
    const dsm::JsonValue *meta = root.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->num("events_modelled"), 1000.0);
    EXPECT_EQ(meta->num("events_elided"), 990.0);
    unsetenv("DSM_BENCH_DIR");
}

} // anonymous namespace
