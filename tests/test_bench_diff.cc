/**
 * @file
 * Tests for the exact cross-run gate: identical reports pass; any
 * change to a result field (in either direction, ruled or not, nested
 * or not) or to a simulated meta field is a difference; host provenance
 * is ignored; structural mismatches are errors; directory comparison
 * matches snapshots by filename. Also covers the provenance (git sha,
 * wall time, host cores) that written dsm-bench-v1 reports carry while
 * toJson() stays byte-stable.
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
using dsm::DiffResult;
using dsm::JsonValue;

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(dsm::parseJson(text, &v, &err)) << err;
    return v;
}

/** A one-row dsm-bench-v1 document with three metrics and a nested one. */
std::string
report(std::uint64_t ops, double mean_latency, std::uint64_t nacks,
       const char *impl = "INV FAP", const char *name = "synthetic")
{
    BenchReport rep(name);
    rep.meta("procs", 64);
    rep.row()
        .set("impl", impl)
        .set("point", "c=8")
        .set("ops", ops)
        .set("mean_latency", mean_latency)
        .set("nacks", nacks)
        .setRaw("txn_phases", "{\"fap\":{\"total\":{\"mean\":35}}}");
    return rep.toJson();
}

/** Mutable member @p key of object @p v (which must have it). */
JsonValue &
member(JsonValue &v, const std::string &key)
{
    for (auto &[k, x] : v.object)
        if (k == key)
            return x;
    ADD_FAILURE() << "no member " << key;
    return v;
}

/** The report's single row, mutable. */
JsonValue &
row0(JsonValue &doc)
{
    return member(doc, "results").array.at(0);
}

/** Diff @p base against a copy changed by @p edit; expect one finding. */
template <typename Edit>
dsm::DiffFinding
oneDiff(const std::string &base, Edit edit)
{
    JsonValue cand = parsed(base);
    edit(cand);
    DiffResult res = dsm::diffBenchReports(parsed(base), cand);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(res.errors.empty());
    EXPECT_EQ(res.diffs.size(), 1u);
    return res.diffs.empty() ? dsm::DiffFinding{} : res.diffs[0];
}

TEST(BenchDiff, IdenticalReportsPass)
{
    std::string doc = report(100000, 1000.0, 500);
    DiffResult res = dsm::diffBenchReports(parsed(doc), parsed(doc));
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.diffs.empty());
    EXPECT_EQ(res.rows_compared, 1);
    // meta.procs, impl, point, ops, mean_latency, nacks, and the nested
    // txn_phases leaf.
    EXPECT_EQ(res.fields_compared, 7);
}

TEST(BenchDiff, AChangeInEitherDirectionFails)
{
    for (double ops : {99999.0, 100001.0}) {
        dsm::DiffFinding f =
            oneDiff(report(100000, 1000.0, 500), [&](JsonValue &d) {
                member(row0(d), "ops").number = ops;
            });
        EXPECT_EQ(f.bench, "synthetic");
        EXPECT_EQ(f.row, "impl=INV FAP point=c=8");
        EXPECT_EQ(f.field, "ops");
        EXPECT_EQ(f.base, "100000");
        EXPECT_EQ(f.cand, ops < 100000 ? "99999" : "100001");
    }
}

TEST(BenchDiff, AnUnruledFieldFails)
{
    BenchReport rep("table1_like");
    rep.row().set("case", "UNC").set("paper", 2).set("measured", 2);
    dsm::DiffFinding f = oneDiff(rep.toJson(), [](JsonValue &d) {
        member(row0(d), "measured").number = 3;
    });
    EXPECT_EQ(f.field, "measured");
}

TEST(BenchDiff, ANestedTxnPhasesFieldFails)
{
    dsm::DiffFinding f =
        oneDiff(report(100000, 1000.0, 500), [](JsonValue &d) {
            JsonValue &fap = member(member(row0(d), "txn_phases"), "fap");
            member(member(fap, "total"), "mean").number = 36;
        });
    EXPECT_EQ(f.field, "txn_phases.fap.total.mean");
    EXPECT_EQ(f.base, "35");
    EXPECT_EQ(f.cand, "36");
}

TEST(BenchDiff, AMetaChangeFails)
{
    dsm::DiffFinding f =
        oneDiff(report(100000, 1000.0, 500), [](JsonValue &d) {
            member(member(d, "meta"), "procs").number = 16;
        });
    EXPECT_EQ(f.row, "meta");
    EXPECT_EQ(f.field, "procs");
}

TEST(BenchDiff, ProvenanceKeysAreIgnored)
{
    std::string doc = report(100000, 1000.0, 500);
    JsonValue base = parsed(doc), cand = parsed(doc);
    auto stamp = [](JsonValue &d, const char *sha, double ms, double cores) {
        JsonValue &meta = member(d, "meta");
        JsonValue v;
        v.kind = JsonValue::Kind::STRING;
        v.string = sha;
        meta.object.emplace_back("git_sha", v);
        v.kind = JsonValue::Kind::NUMBER;
        v.number = ms;
        meta.object.emplace_back("wall_ms", v);
        v.number = cores;
        meta.object.emplace_back("host_cores", v);
    };
    stamp(base, "cafe1234", 120, 4);
    stamp(cand, "beef5678", 95, 1);
    DiffResult res = dsm::diffBenchReports(base, cand);
    EXPECT_TRUE(res.ok()) << dsm::renderDiff(res);

    // Present on one side only, they are ignored too.
    res = dsm::diffBenchReports(base, parsed(doc));
    EXPECT_TRUE(res.ok()) << dsm::renderDiff(res);
}

TEST(BenchDiff, RepeatedKeysCompareByOccurrence)
{
    // Campaign rows write some keys twice (a run metric and a workload
    // field of the same name); each occurrence is its own field.
    BenchReport rep("repeated");
    rep.row().set("impl", "x").set("updates", 0).set("updates", 512);
    std::string doc = rep.toJson();
    DiffResult same = dsm::diffBenchReports(parsed(doc), parsed(doc));
    EXPECT_TRUE(same.ok()) << dsm::renderDiff(same);
    EXPECT_EQ(same.fields_compared, 3);

    dsm::DiffFinding f = oneDiff(doc, [](JsonValue &d) {
        row0(d).object.back().second.number = 511;
    });
    EXPECT_EQ(f.field, "updates");
    EXPECT_EQ(f.base, "512");
    EXPECT_EQ(f.cand, "511");
}

TEST(BenchDiff, AMissingOrExtraFieldIsAnError)
{
    std::string doc = report(100000, 1000.0, 500);
    JsonValue missing = parsed(doc);
    std::erase_if(row0(missing).object,
                  [](const auto &kv) { return kv.first == "nacks"; });
    DiffResult res = dsm::diffBenchReports(parsed(doc), missing);
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("nacks: missing from candidate"),
              std::string::npos);

    res = dsm::diffBenchReports(missing, parsed(doc));
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("nacks: not in baseline"),
              std::string::npos);

    // So is a meta field, and a scalar that became an object.
    JsonValue extra_meta = parsed(doc);
    member(extra_meta, "meta").object.emplace_back("seed", JsonValue{});
    res = dsm::diffBenchReports(parsed(doc), extra_meta);
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("[meta] seed"), std::string::npos);

    JsonValue retyped = parsed(doc);
    member(row0(retyped), "ops").kind = JsonValue::Kind::OBJECT;
    res = dsm::diffBenchReports(parsed(doc), retyped);
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("ops: type changed"), std::string::npos);
}

TEST(BenchDiff, TamperedTable1MeasuredFails)
{
    // The committed Table 1 baseline with UNC's serialized-message
    // count changed 2 -> 99.
    std::ifstream in(std::string(DSM_BENCH_BASELINE_DIR) +
                     "/BENCH_table1_serialized_messages.json");
    ASSERT_TRUE(in);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonValue base = parsed(text), cand = parsed(text);
    JsonValue &unc = row0(cand);
    ASSERT_EQ(unc.str("case"), "UNC");
    member(unc, "measured").number = 99;

    DiffResult res = dsm::diffBenchReports(base, cand);
    EXPECT_TRUE(res.errors.empty());
    ASSERT_EQ(res.diffs.size(), 1u);
    EXPECT_NE(dsm::renderDiff(res).find(
                  "DIFF table1_serialized_messages [case=UNC] measured: "
                  "2 -> 99\n"),
              std::string::npos);
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
        parsed(report(90000, 1000.5, 500)));
    std::string text = dsm::renderDiff(res);
    EXPECT_NE(text.find("DIFF synthetic [impl=INV FAP point=c=8] ops: "
                        "100000 -> 90000\n"),
              std::string::npos);
    EXPECT_NE(text.find("mean_latency: 1000 -> 1000.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("2 difference(s), 0 error(s)"), std::string::npos);
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

    // With the counterpart present (but changed) the directory diff
    // folds the per-file results together; extra candidate files are
    // ignored.
    put(cand / "BENCH_beta.json", report(500, 10.0, 0, "x", "beta"));
    put(cand / "BENCH_gamma.json", report(1, 1.0, 0, "x", "gamma"));
    res = dsm::diffBenchDirs(base.string(), cand.string());
    EXPECT_TRUE(res.errors.empty());
    ASSERT_EQ(res.diffs.size(), 1u);
    EXPECT_EQ(res.diffs[0].bench, "beta");
    EXPECT_EQ(res.diffs[0].field, "ops");
    EXPECT_EQ(res.rows_compared, 2);

    // File-level comparison agrees with the directory walk.
    DiffResult one = dsm::diffBenchFiles(
        (base / "BENCH_beta.json").string(),
        (cand / "BENCH_beta.json").string());
    ASSERT_EQ(one.diffs.size(), 1u);
    EXPECT_EQ(one.diffs[0].field, "ops");

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
