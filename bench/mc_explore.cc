/**
 * @file
 * Exhaustive model-checker sweep: runs mc::explore over every
 * implementation of the application matrix ({UNC, INV, UPD} x
 * {FAP, LLSC, CAS}) on small closed configurations and reports state /
 * transition / terminal counts per point. Any invariant violation or
 * deadlock fails the run (exit 1) and writes a MC_DUMP_<label>.txt
 * state-dump artifact next to the JSON so CI can upload it.
 *
 * Sweep points:
 *   - 2 nodes, 2 ops/proc, no loss   (the CI smoke configuration)
 *   - 3 nodes, 1 op/proc,  no loss
 *   - 2 nodes, 1 op/proc,  loss budget 1 (recovery layer exercised)
 *   - 2 nodes, 1 op/proc,  reorder budget 1 (bounded-skew delivery)
 *   - 2 nodes, 1 op/proc,  duplication budget 1 (replayed copies)
 *   - 2 nodes, 1 op/proc,  all three faulty-channel budgets combined
 *
 * Beyond the 3x3 application matrix, the INVd (CAS-deny) and INVs
 * (CAS-share) directory variants run the same points: their distinct
 * failed-CAS reply paths (CAS_FAIL vs CAS_FAIL_S) carry their own
 * dedup/replay rules.
 *
 * Usage: mc_explore [--jobs N]. The points run on N host threads
 * (default $DSM_JOBS, else 1); the table and the report list them in
 * declaration order whatever N is. Any other argument prints the usage
 * and exits 2.
 */

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "exp/experiment.hh"
#include "exp/sweep_runner.hh"
#include "mc/explorer.hh"
#include "stats/bench_report.hh"

using namespace dsm;

namespace {

const char *const USAGE = "usage: mc_explore [--jobs N]\n";

/** True if every argument belongs to a --jobs flag. */
bool
onlyJobsFlags(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0)
            ++i; // its value, read by parseJobsFlag
        else if (std::strncmp(a, "--jobs=", 7) != 0)
            return false;
    }
    return true;
}

struct McPoint
{
    const char *tag;
    int nodes;
    int ops;
    int loss;
    int reorder;
    int dup;
};

std::string
sanitize(std::string s)
{
    for (char &c : s)
        if (c == ' ' || c == '/')
            c = '_';
    return s;
}

void
writeDump(const std::string &label, const mc::Result &res)
{
    std::string path =
        benchOutputPath("MC_DUMP_" + sanitize(label) + ".txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    for (const mc::Violation &v : res.violations) {
        std::fprintf(f, "== %s: %s\n%s\n", v.kind.c_str(),
                     v.detail.c_str(), v.state_dump.c_str());
    }
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (!onlyJobsFlags(argc, argv)) {
        std::fputs(USAGE, stderr);
        return 2;
    }
    int jobs = SweepRunner::resolveJobs(parseJobsFlag(argc, argv));

    const McPoint points[] = {
        { "2n2op", 2, 2, 0, 0, 0 },
        { "3n1op", 3, 1, 0, 0, 0 },
        { "2n1op+loss", 2, 1, 1, 0, 0 },
        { "2n1op+reorder", 2, 1, 0, 1, 0 },
        { "2n1op+dup", 2, 1, 0, 0, 1 },
        { "2n1op+chaos", 2, 1, 1, 1, 1 },
    };
    const std::size_t npoints = std::size(points);

    BenchReport report("mc_explore");
    report.meta("description",
                "exhaustive small-config exploration of the pure "
                "transition functions");

    // The 3x3 application matrix plus the CAS directory variants: INVd
    // denies sharing on failed CAS, INVs grants a shared copy — each
    // has its own reply class and dedup-replay rules to model-check.
    std::vector<ImplCase> impls = applicationMatrix();
    {
        SyncConfig sc;
        sc.policy = SyncPolicy::INV;
        sc.cas_variant = CasVariant::DENY;
        impls.push_back({"INVd CAS", Primitive::CAS, sc});
        sc.cas_variant = CasVariant::SHARE;
        impls.push_back({"INVs CAS", Primitive::CAS, sc});
    }

    // Explore every (impl, point) pair, then report in that order.
    std::vector<mc::Result> results(impls.size() * npoints);
    forEachIndex(jobs, results.size(), [&](std::size_t i) {
        const ImplCase &impl = impls[i / npoints];
        const McPoint &pt = points[i % npoints];
        Config cfg;
        cfg.sync = impl.sync;
        cfg.mc.primitive = impl.prim;
        cfg.mc.nodes = pt.nodes;
        cfg.mc.ops_per_proc = pt.ops;
        cfg.mc.loss_budget = pt.loss;
        cfg.mc.reorder_budget = pt.reorder;
        cfg.mc.dup_budget = pt.dup;
        results[i] = mc::explore(cfg);
    });

    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ImplCase &impl = impls[i / npoints];
        const McPoint &pt = points[i % npoints];
        const mc::Result &res = results[i];

        std::string label = impl.label + " " + pt.tag;
        std::printf("%-18s states %9llu transitions %10llu "
                    "terminals %7llu depth %5llu %s\n",
                    label.c_str(),
                    (unsigned long long)res.states,
                    (unsigned long long)res.transitions,
                    (unsigned long long)res.terminals,
                    (unsigned long long)res.max_depth,
                    res.ok() ? "ok"
                             : (res.completed ? "VIOLATIONS"
                                              : "INCOMPLETE"));

        report.row()
            .set("impl", impl.label)
            .set("point", pt.tag)
            .set("nodes", pt.nodes)
            .set("ops_per_proc", pt.ops)
            .set("loss_budget", pt.loss)
            .set("reorder_budget", pt.reorder)
            .set("dup_budget", pt.dup)
            .set("states", (std::uint64_t)res.states)
            .set("transitions", (std::uint64_t)res.transitions)
            .set("terminals", (std::uint64_t)res.terminals)
            .set("losses", (std::uint64_t)res.losses)
            .set("reorders", (std::uint64_t)res.reorders)
            .set("dups", (std::uint64_t)res.dups)
            .set("max_depth", (std::uint64_t)res.max_depth)
            .set("violations", (std::uint64_t)res.violations.size())
            .set("completed", res.completed ? 1 : 0);

        if (!res.ok()) {
            ok = false;
            for (const mc::Violation &v : res.violations)
                std::fprintf(stderr, "  %s: %s\n", v.kind.c_str(),
                             v.detail.c_str());
            if (!res.violations.empty())
                writeDump(label, res);
        }
    }

    report.write();
    return ok ? 0 : 1;
}
