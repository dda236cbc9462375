#include "stats/bench_diff.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

/** meta keys that describe the host run, not the simulated result. */
bool
isProvenance(const std::string &key)
{
    return key == "git_sha" || key == "wall_ms" || key == "host_cores";
}

/** Row identity: every string-valued field, in order. */
std::string
rowLabel(const JsonValue &row, int index)
{
    std::string label;
    for (const auto &[k, v] : row.object) {
        if (!v.isString())
            continue;
        if (!label.empty())
            label += ' ';
        label += k + '=' + v.string;
    }
    if (label.empty())
        label = csprintf("row %d", index);
    return label;
}

/**
 * A scalar rendered as JSON, numbers in their shortest exact decimal:
 * two scalars are equal exactly when their renderings are.
 */
std::string
render(const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::BOOL:
        return v.boolean ? "true" : "false";
      case JsonValue::Kind::NUMBER: {
        char buf[512]; // fits any double in fixed notation
        auto r = std::to_chars(buf, buf + sizeof buf, v.number,
                               std::chars_format::fixed);
        return std::string(buf, r.ptr);
      }
      case JsonValue::Kind::STRING:
        return '"' + jsonEscape(v.string) + '"';
      default:
        return "null";
    }
}

/**
 * The @p n-th member named @p key: a row may repeat a key, and each
 * occurrence is compared with the same occurrence on the other side.
 */
const JsonValue *
findNth(const JsonValue &obj, const std::string &key, int n)
{
    for (const auto &[k, v] : obj.object)
        if (k == key && n-- == 0)
            return &v;
    return nullptr;
}

/** Compares one row (or the meta object) of a report pair. */
struct Walker
{
    DiffResult &res;
    const std::string &bench;
    const std::string &row;

    void
    error(const std::string &path, const std::string &what)
    {
        res.errors.push_back(bench + " [" + row + "] " + path + ": " +
                             what);
    }

    void
    compare(const std::string &path, const JsonValue &b,
            const JsonValue &c)
    {
        auto child = [&](const std::string &k) {
            return path.empty() ? k : path + '.' + k;
        };
        if (b.isObject() && c.isObject()) {
            std::map<std::string, int> seen;
            for (const auto &[k, bv] : b.object) {
                if (const JsonValue *cv = findNth(c, k, seen[k]++))
                    compare(child(k), bv, *cv);
                else
                    error(child(k), "missing from candidate");
            }
            seen.clear();
            for (const auto &[k, cv] : c.object)
                if (findNth(b, k, seen[k]++) == nullptr)
                    error(child(k), "not in baseline");
        } else if (b.isArray() && c.isArray()) {
            if (b.array.size() != c.array.size()) {
                error(path, csprintf("length changed %zu -> %zu",
                                     b.array.size(), c.array.size()));
                return;
            }
            for (std::size_t i = 0; i < b.array.size(); ++i)
                compare(csprintf("%s[%zu]", path.c_str(), i), b.array[i],
                        c.array[i]);
        } else if (b.isObject() || b.isArray() || c.isObject() ||
                   c.isArray()) {
            error(path, "type changed");
        } else {
            ++res.fields_compared;
            std::string bs = render(b), cs = render(c);
            if (bs != cs)
                res.diffs.push_back({bench, row, path, bs, cs});
        }
    }
};

} // anonymous namespace

void
DiffResult::merge(const DiffResult &other)
{
    diffs.insert(diffs.end(), other.diffs.begin(), other.diffs.end());
    errors.insert(errors.end(), other.errors.begin(),
                  other.errors.end());
    rows_compared += other.rows_compared;
    fields_compared += other.fields_compared;
}

DiffResult
diffBenchReports(const JsonValue &base, const JsonValue &cand)
{
    DiffResult res;
    if (base.str("schema") != "dsm-bench-v1" ||
        cand.str("schema") != "dsm-bench-v1") {
        res.errors.push_back("not a dsm-bench-v1 report");
        return res;
    }
    std::string bench = base.str("bench");
    if (cand.str("bench") != bench) {
        res.errors.push_back("bench name mismatch: baseline \"" + bench +
                             "\" vs candidate \"" + cand.str("bench") +
                             "\"");
        return res;
    }
    const JsonValue *bmeta = base.find("meta");
    const JsonValue *cmeta = cand.find("meta");
    const JsonValue *brows = base.find("results");
    const JsonValue *crows = cand.find("results");
    if (bmeta == nullptr || !bmeta->isObject() || cmeta == nullptr ||
        !cmeta->isObject() || brows == nullptr || !brows->isArray() ||
        crows == nullptr || !crows->isArray()) {
        res.errors.push_back(bench + ": missing meta object or results "
                                     "array");
        return res;
    }
    if (brows->array.size() != crows->array.size()) {
        res.errors.push_back(csprintf(
            "%s: row count changed %zu -> %zu", bench.c_str(),
            brows->array.size(), crows->array.size()));
        return res;
    }

    auto simulated = [](const JsonValue &meta) {
        JsonValue out = meta;
        std::erase_if(out.object,
                      [](const auto &kv) { return isProvenance(kv.first); });
        return out;
    };
    const std::string meta_row = "meta";
    Walker{res, bench, meta_row}.compare("", simulated(*bmeta),
                                         simulated(*cmeta));

    for (std::size_t i = 0; i < brows->array.size(); ++i) {
        const JsonValue &br = brows->array[i];
        const JsonValue &cr = crows->array[i];
        std::string label = rowLabel(br, static_cast<int>(i));
        // Identifying string fields must agree, or the sweep shape
        // changed and field-by-field comparison would be meaningless.
        if (rowLabel(cr, static_cast<int>(i)) != label) {
            res.errors.push_back(
                bench + ": row identity changed: baseline [" + label +
                "] vs candidate [" +
                rowLabel(cr, static_cast<int>(i)) + "]");
            continue;
        }
        ++res.rows_compared;
        Walker{res, bench, label}.compare("", br, cr);
    }
    return res;
}

namespace {

bool
loadJsonFile(const std::string &path, JsonValue *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string perr;
    if (!parseJson(text.str(), out, &perr)) {
        *err = path + ": " + perr;
        return false;
    }
    return true;
}

} // anonymous namespace

DiffResult
diffBenchFiles(const std::string &base_path, const std::string &cand_path)
{
    DiffResult res;
    JsonValue base, cand;
    std::string err;
    if (!loadJsonFile(base_path, &base, &err) ||
        !loadJsonFile(cand_path, &cand, &err)) {
        res.errors.push_back(err);
        return res;
    }
    return diffBenchReports(base, cand);
}

DiffResult
diffBenchDirs(const std::string &base_dir, const std::string &cand_dir)
{
    namespace fs = std::filesystem;
    DiffResult res;
    std::vector<std::string> names;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(base_dir, ec)) {
        std::string n = e.path().filename().string();
        if (n.rfind("BENCH_", 0) == 0 && n.size() > 5 &&
            n.substr(n.size() - 5) == ".json")
            names.push_back(n);
    }
    if (ec) {
        res.errors.push_back("cannot read directory " + base_dir + ": " +
                             ec.message());
        return res;
    }
    if (names.empty()) {
        res.errors.push_back("no BENCH_*.json files in " + base_dir);
        return res;
    }
    std::sort(names.begin(), names.end());
    for (const std::string &n : names) {
        std::string cand_path = cand_dir + "/" + n;
        if (!fs::exists(cand_path)) {
            res.errors.push_back("baseline " + n +
                                 " has no candidate counterpart in " +
                                 cand_dir);
            continue;
        }
        res.merge(diffBenchFiles(base_dir + "/" + n, cand_path));
    }
    return res;
}

std::string
renderDiff(const DiffResult &r)
{
    std::string out;
    for (const std::string &e : r.errors)
        out += "ERROR: " + e + "\n";
    for (const DiffFinding &f : r.diffs)
        out += "DIFF " + f.bench + " [" + f.row + "] " + f.field + ": " +
               f.base + " -> " + f.cand + "\n";
    out += csprintf("%d rows, %d fields compared: %zu difference(s), "
                    "%zu error(s)\n",
                    r.rows_compared, r.fields_compared, r.diffs.size(),
                    r.errors.size());
    return out;
}

} // namespace dsm
