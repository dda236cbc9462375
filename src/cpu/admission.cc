#include "cpu/admission.hh"

#include "sim/logging.hh"

namespace dsm {

AdmissionQueues::AdmissionQueues(const OpenLoopConfig &cfg, int num_procs)
    : _cfg(cfg),
      _q(static_cast<std::size_t>(num_procs)),
      _throttle_until(static_cast<std::size_t>(num_procs), 0)
{
}

bool
AdmissionQueues::offer(NodeId n, Tick now)
{
    std::deque<Tick> &q = _q[static_cast<std::size_t>(n)];
    ++_st.offered;
    _st.depth_on_arrival.add(q.size());
    if (now < _throttle_until[static_cast<std::size_t>(n)]) {
        ++_st.rejected;
        ++_st.rejected_throttled;
        return false;
    }
    if (q.size() >= static_cast<std::size_t>(_cfg.queue_cap)) {
        ++_st.rejected;
        return false;
    }
    ++_st.admitted;
    q.push_back(now);
    return true;
}

Tick
AdmissionQueues::pop(NodeId n, Tick now)
{
    std::deque<Tick> &q = _q[static_cast<std::size_t>(n)];
    dsm_assert(!q.empty(), "pop from empty admission queue %d", n);
    Tick arrival = q.front();
    q.pop_front();
    _st.admission_wait.sample(now - arrival);
    return arrival;
}

void
AdmissionQueues::setThrottledUntil(NodeId n, Tick until)
{
    Tick &t = _throttle_until[static_cast<std::size_t>(n)];
    if (until > t)
        t = until;
}

void
AdmissionQueues::complete(Tick arrival, Tick now)
{
    ++_st.completed;
    Tick sojourn = now - arrival;
    _st.sojourn.sample(sojourn);
    if (_cfg.slo_cycles != 0 && sojourn > _cfg.slo_cycles)
        ++_st.slo_violations;
}

} // namespace dsm
