/**
 * @file
 * Exact cross-run gate over dsm-bench-v1 reports.
 *
 * Usage:
 *   bench_diff <baseline> <candidate>
 *
 * Each operand is either one BENCH_*.json file or a directory of them
 * (directories are matched by filename; a baseline bench missing from
 * the candidate is an error, extra candidate benches are ignored).
 * Every result field and every meta field but the host provenance
 * (git_sha, wall_ms, host_cores) must match exactly; see
 * src/stats/bench_diff.hh.
 *
 * Exit status: 0 = identical, 1 = some field differs,
 * 2 = usage, parse, or structure error.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "stats/bench_diff.hh"

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "usage: bench_diff <baseline> <candidate>\n"
                     "  operands are BENCH_*.json files or directories of "
                     "them\n");
        return 2;
    }
    std::string base = argv[1], cand = argv[2];

    namespace fs = std::filesystem;
    bool base_dir = fs::is_directory(base);
    bool cand_dir = fs::is_directory(cand);
    if (base_dir != cand_dir) {
        std::fprintf(stderr,
                     "bench_diff: operands must both be files or both "
                     "be directories\n");
        return 2;
    }
    dsm::DiffResult res = base_dir ? dsm::diffBenchDirs(base, cand)
                                   : dsm::diffBenchFiles(base, cand);
    std::fputs(dsm::renderDiff(res).c_str(), stdout);
    if (!res.errors.empty())
        return 2;
    return res.diffs.empty() ? 0 : 1;
}
