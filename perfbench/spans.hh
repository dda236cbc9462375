/**
 * @file
 * In-memory host-time spans of a traced benchmark run, written out as
 * one Chrome/Perfetto trace when the run ends.
 *
 * Spans form a tree: workload -> pass -> point -> setup/run/harvest,
 * with simulated-window spans (from EventQueue::setSampler) under each
 * point's run span. Every span carries the workload span's id as its
 * trace id, so all spans of one run can be selected together.
 */

#ifndef DSM_PERFBENCH_SPANS_HH
#define DSM_PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for the root
    std::string name;
    std::string cat;          ///< "workload", "pass", "point", "phase", "window"
    double start = 0;         ///< host seconds
    double end = 0;
    /** Numeric attributes (window deltas, simulated ticks). */
    std::vector<std::pair<std::string, double>> args;
};

class SpanLog
{
  public:
    /** Open a span now; returns its id. */
    std::uint64_t open(std::string name, std::string cat,
                       std::uint64_t parent);

    /** Close span @p id now. */
    void close(std::uint64_t id);

    /** Record a finished span. */
    std::uint64_t add(Span s);

    Span &get(std::uint64_t id) { return _spans[id - 1]; }
    const std::vector<Span> &spans() const { return _spans; }

    /** The trace id every span carries (the first span's id). */
    std::uint64_t traceId() const { return _spans.empty() ? 0 : 1; }

    /**
     * Write every span as a Chrome trace (complete "X" events, times
     * relative to the first span) with @p footer_json spliced in as the
     * top-level "footer" value.
     * @return false on I/O failure.
     */
    bool write(const std::string &path,
               const std::string &footer_json) const;

  private:
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // DSM_PERFBENCH_SPANS_HH
