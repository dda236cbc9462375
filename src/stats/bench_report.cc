#include "stats/bench_report.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "cpu/system.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

RunMetrics
collectRunMetrics(System &sys)
{
    SysStats agg = sys.stats();
    LatencyStat total;
    RunMetrics m;
    for (int i = 0; i < NUM_ATOMIC_OPS; ++i) {
        m.ops += agg.op_count[i];
        total.merge(agg.op_latency[i]);
    }
    m.mean_latency = total.mean();
    m.p50 = total.p50();
    m.p95 = total.p95();
    m.p99 = total.p99();
    m.p999 = total.p999();
    m.max_latency = total.max;
    const MeshStats &ms = sys.mesh().stats();
    m.messages = ms.messages;
    m.flits = ms.flits;
    m.nacks = agg.nacks;
    m.retries = agg.retries;
    m.invalidations = agg.invalidations;
    m.updates = agg.updates;
    m.ticks = sys.now();
    return m;
}

namespace {

std::string
renderString(const std::string &v)
{
    return "\"" + jsonEscape(v) + "\"";
}

std::string
renderNumber(double v)
{
    JsonWriter w;
    w.value(v);
    return w.str();
}

std::string
renderNumber(std::uint64_t v)
{
    return csprintf("%llu", static_cast<unsigned long long>(v));
}

} // anonymous namespace

BenchRow &
BenchRow::set(const std::string &k, const std::string &v)
{
    _fields.emplace_back(k, renderString(v));
    return *this;
}

BenchRow &
BenchRow::set(const std::string &k, const char *v)
{
    return set(k, std::string(v));
}

BenchRow &
BenchRow::set(const std::string &k, double v)
{
    _fields.emplace_back(k, renderNumber(v));
    return *this;
}

BenchRow &
BenchRow::set(const std::string &k, std::uint64_t v)
{
    _fields.emplace_back(k, renderNumber(v));
    return *this;
}

BenchRow &
BenchRow::set(const std::string &k, int v)
{
    _fields.emplace_back(k, csprintf("%d", v));
    return *this;
}

BenchRow &
BenchRow::setRaw(const std::string &k, std::string rendered_json)
{
    _fields.emplace_back(k, std::move(rendered_json));
    return *this;
}

BenchRow &
BenchRow::metrics(const RunMetrics &m)
{
    set("ops", m.ops);
    set("mean_latency", m.mean_latency);
    set("p50", static_cast<std::uint64_t>(m.p50));
    set("p95", static_cast<std::uint64_t>(m.p95));
    set("p99", static_cast<std::uint64_t>(m.p99));
    set("p999", static_cast<std::uint64_t>(m.p999));
    set("max_latency", static_cast<std::uint64_t>(m.max_latency));
    set("messages", m.messages);
    set("flits", m.flits);
    set("nacks", m.nacks);
    set("retries", m.retries);
    set("invalidations", m.invalidations);
    set("updates", m.updates);
    set("ticks", static_cast<std::uint64_t>(m.ticks));
    return *this;
}

BenchRow &
BenchRow::merge(const BenchRow &other)
{
    _fields.insert(_fields.end(), other._fields.begin(),
                   other._fields.end());
    return *this;
}

BenchReport::BenchReport(std::string name)
    : _name(std::move(name)), _created(std::chrono::steady_clock::now())
{
}

namespace {

/**
 * Commit provenance for the written report: $DSM_GIT_SHA wins (CI sets
 * it to the exact tested revision), else ask git, else "unknown" (e.g.
 * running from an exported tarball).
 */
std::string
gitSha()
{
    const char *env = std::getenv("DSM_GIT_SHA");
    if (env != nullptr && env[0] != '\0')
        return env;
    std::string sha;
    if (FILE *p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64];
        if (std::fgets(buf, sizeof buf, p) != nullptr)
            sha = buf;
        pclose(p);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

} // anonymous namespace

void
BenchReport::meta(const std::string &k, const std::string &v)
{
    _meta.emplace_back(k, renderString(v));
}

void
BenchReport::meta(const std::string &k, double v)
{
    _meta.emplace_back(k, renderNumber(v));
}

void
BenchReport::meta(const std::string &k, std::uint64_t v)
{
    _meta.emplace_back(k, renderNumber(v));
}

void
BenchReport::meta(const std::string &k, int v)
{
    _meta.emplace_back(k, csprintf("%d", v));
}

void
BenchReport::provenance(const std::string &k, std::uint64_t v)
{
    _provenance.emplace_back(k, v);
}

BenchRow &
BenchReport::row()
{
    _rows.emplace_back();
    return _rows.back();
}

std::string
BenchReport::render(bool provenance) const
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "dsm-bench-v1");
    w.kv("bench", _name);
    w.key("meta");
    w.beginObject();
    for (const auto &[k, v] : _meta) {
        w.key(k);
        w.raw(v);
    }
    if (provenance) {
        using namespace std::chrono;
        w.kv("git_sha", gitSha());
        w.kv("wall_ms",
             static_cast<std::uint64_t>(duration_cast<milliseconds>(
                 steady_clock::now() - _created).count()));
        w.kv("host_cores",
             static_cast<std::uint64_t>(
                 std::thread::hardware_concurrency()));
        for (const auto &[k, v] : _provenance)
            w.kv(k, v);
    }
    w.endObject();
    w.key("results");
    w.beginArray();
    for (const BenchRow &r : _rows) {
        w.beginObject();
        for (const auto &[k, v] : r._fields) {
            w.key(k);
            w.raw(v);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
BenchReport::toJson() const
{
    return render(false);
}

std::string
benchOutputPath(const std::string &file)
{
    const char *dir = std::getenv("DSM_BENCH_DIR");
    return std::string(dir != nullptr && dir[0] != '\0' ? dir : ".") +
           "/" + file;
}

std::string
BenchReport::outputPath() const
{
    return benchOutputPath("BENCH_" + _name + ".json");
}

std::string
BenchReport::write() const
{
    std::string path = outputPath();
    std::ofstream out(path, std::ios::binary);
    if (out)
        out << render(true) << '\n';
    if (!out) {
        dsm_warn("could not write bench report %s", path.c_str());
        return "";
    }
    return path;
}

} // namespace dsm
