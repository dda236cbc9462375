#include "fault/recovery.hh"

#include "cpu/system.hh"
#include "net/mesh.hh"
#include "proto/controller.hh"

namespace dsm {

Recovery::Recovery(System &sys, Mesh &mesh)
    : _sys(sys),
      _mesh(mesh),
      _pending(static_cast<std::size_t>(sys.cfg().machine.num_procs))
{
}

void
Recovery::noteDrop(const Msg &m, NodeId from, NodeId to)
{
    ++_ctr.drops;
    if (recoverableRequest(m.type))
        ++_ctr.req_drops;
    else
        ++_ctr.reply_drops;
    if (m.type == MsgType::NACK)
        ++_ctr.nacks_lost;

    PendingDrop d;
    d.seq = m.seq;
    d.from = from;
    d.to = to;
    d.was_request = recoverableRequest(m.type);

    // Requests carry requester == src semantics only implicitly; the
    // requester field is stamped on every covered message, so use it.
    NodeId r = m.requester;
    if (_sys.ctrl(r).cpuAwaitedSeq() == m.seq) {
        _pending[static_cast<std::size_t>(r)].push_back(d);
        ++_pending_total;
    } else {
        // The requester already moved past this seq (or is between
        // attempts): this was duplicate traffic and needs no further
        // recovery action.
        cover(d);
    }
}

void
Recovery::coverRequester(NodeId r)
{
    auto &v = _pending[static_cast<std::size_t>(r)];
    if (v.empty())
        return;
    for (const PendingDrop &d : v)
        cover(d);
    _pending_total -= v.size();
    v.clear();
}

void
Recovery::cover(const PendingDrop &d)
{
    if (_mesh.linkQuarantined(d.from, d.to))
        ++_ctr.quarantine_covered;
    else
        ++_ctr.retransmit_covered;
}

void
Recovery::clearCounters()
{
    _ctr = Counters();
    _ctr.drops = _pending_total;
    for (const auto &v : _pending) {
        for (const PendingDrop &d : v) {
            if (d.was_request)
                ++_ctr.req_drops;
            else
                ++_ctr.reply_drops;
        }
    }
}

} // namespace dsm
