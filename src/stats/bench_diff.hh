/**
 * @file
 * Exact cross-run comparison of dsm-bench-v1 reports.
 *
 * The simulator is deterministic: an unchanged model reproduces every
 * field of every report, at any --jobs. So diffBenchReports() compares
 * a baseline and a candidate exactly. Every field of every row is
 * compared, nested objects included, and so is the report's meta minus
 * the host provenance keys (git_sha, wall_ms, host_cores). A change in
 * either direction is a difference. Rows are matched by position and
 * verified by their identifying string fields; a changed row count,
 * row identity, or a field present on one side only is a structural
 * error.
 *
 * The bench/bench_diff CLI wraps this over files or whole directories
 * of BENCH_*.json snapshots; CI runs it against bench/baselines/.
 */

#ifndef DSM_STATS_BENCH_DIFF_HH
#define DSM_STATS_BENCH_DIFF_HH

#include <string>
#include <vector>

namespace dsm {

struct JsonValue;

/** One field whose value differs between baseline and candidate. */
struct DiffFinding
{
    std::string bench; ///< bench name from the report
    std::string row;   ///< row identity (string fields joined), or "meta"
    std::string field; ///< dotted path within the row or meta
    std::string base;  ///< baseline value, rendered as JSON
    std::string cand;  ///< candidate value, rendered as JSON
};

/** Outcome of comparing one report pair or two snapshot directories. */
struct DiffResult
{
    std::vector<DiffFinding> diffs;
    /** Structural problems: schema/bench/row/field mismatches, parse errors. */
    std::vector<std::string> errors;
    int rows_compared = 0;
    int fields_compared = 0; ///< leaf values compared

    bool ok() const { return diffs.empty() && errors.empty(); }

    /** Fold another result (e.g. one more file of a directory) in. */
    void merge(const DiffResult &other);
};

/** Compare two parsed dsm-bench-v1 documents. */
DiffResult diffBenchReports(const JsonValue &base, const JsonValue &cand);

/** Compare two BENCH_*.json files. */
DiffResult diffBenchFiles(const std::string &base_path,
                          const std::string &cand_path);

/**
 * Compare every BENCH_*.json in @p base_dir against the same-named
 * file in @p cand_dir. A baseline file with no candidate counterpart
 * is an error; extra candidate files are ignored.
 */
DiffResult diffBenchDirs(const std::string &base_dir,
                         const std::string &cand_dir);

/** Human-readable rendering, one line per difference/error plus summary. */
std::string renderDiff(const DiffResult &r);

} // namespace dsm

#endif // DSM_STATS_BENCH_DIFF_HH
