#include "spans.hh"

#include <cstdio>

#include "bench.hh"
#include "sim/json.hh"

namespace perfbench {

std::uint64_t
SpanLog::open(std::string name, std::string cat, std::uint64_t parent)
{
    Span s;
    s.parent = parent;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.start = hostNow();
    return add(std::move(s));
}

void
SpanLog::close(std::uint64_t id)
{
    get(id).end = hostNow();
}

std::uint64_t
SpanLog::add(Span s)
{
    s.id = _spans.size() + 1;
    _spans.push_back(std::move(s));
    return _spans.back().id;
}

bool
SpanLog::write(const std::string &path,
               const std::string &footer_json) const
{
    double t0 = _spans.empty() ? 0 : _spans.front().start;
    JsonWriter w;
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();
    for (const Span &s : _spans) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("cat", s.cat);
        w.kv("ph", "X");
        w.kv("pid", 1);
        // Windows overlap their run span; give them their own track.
        w.kv("tid", s.cat == "window" ? 2 : 1);
        w.kv("ts", (s.start - t0) * 1e6);
        w.kv("dur", (s.end - s.start) * 1e6);
        w.key("args");
        w.beginObject();
        w.kv("id", s.id);
        w.kv("parent", s.parent);
        w.kv("trace_id", traceId());
        for (const auto &[k, v] : s.args)
            w.kv(k, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("footer");
    w.raw(footer_json);
    w.endObject();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string &doc = w.str();
    bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
