#include "cpu/proc.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

Proc::Proc(System &sys, NodeId id) : _sys(sys), _id(id) {}

void
Proc::issue(AtomicOp op, Addr a, Word v, Word exp, Pending w)
{
    ++_ops_issued;
    w.op = op;
    w.addr = a;
    w.is_sync = _sys.isSync(a) && op != AtomicOp::DROP_COPY;
    // Contention (Figure 2) counts processors concurrently *attempting
    // an atomic access*; ordinary loads (e.g. test-and-test-and-set
    // spinning on a cached copy) are not attempts. Write-run tracking
    // counts every access: reads by other processors end a run.
    w.is_attempt = w.is_sync && (isAtomic(op) || op == AtomicOp::LL ||
                                 op == AtomicOp::LLS);
    if (w.is_attempt)
        _sys.sharing().beginAttempt(a, _id);

    // If previous attempts on an acquire loop failed, tell the
    // transaction tracer how many spin iterations preceded this issue.
    if (_sys.txns().enabled() && _fail_streak > 0)
        _sys.txns().noteLoopIter(_id, _fail_streak);

    _pending = w;
    _sys.ctrl(_id).cpuRequest(op, a, v, exp,
                              w.spin != nullptr ? &w.spin->pred : nullptr);
}

void
Proc::complete(OpResult r)
{
    // The resumed code issues the next operation, which overwrites
    // _pending: work from a copy.
    const Pending p = _pending;
    if (p.is_attempt)
        _sys.sharing().endAttempt(p.addr, _id);
    if (p.is_sync)
        _sys.sharing().recordAccess(p.addr, _id,
                                    effectiveWrite(p.op, r.success));
    noteResult(p.op, r);
    if (p.spin != nullptr && p.spin->pred(r.value)) {
        p.spin->reread();
        return;
    }
    *p.result = r;
    p.handle.resume();
}

void
Proc::noteResult(AtomicOp op, const OpResult &r)
{
    switch (op) {
      case AtomicOp::TAS:
        // A test_and_set that reads 1 found the lock held: a spin.
        _fail_streak = r.value != 0 ? _fail_streak + 1 : 0;
        break;
      case AtomicOp::CAS:
      case AtomicOp::SC:
      case AtomicOp::SCS:
        _fail_streak = r.success ? 0 : _fail_streak + 1;
        break;
      case AtomicOp::STORE:
      case AtomicOp::FAA:
      case AtomicOp::FAS:
      case AtomicOp::FAO:
        _fail_streak = 0;
        break;
      default:
        // Loads (incl. LL/LLS) neither succeed nor fail an acquire.
        break;
    }
}

void
Proc::Op::await_suspend(std::coroutine_handle<> h)
{
    proc.issue(op, addr, value, expected, Pending{h, &result});
}

void
Proc::SpinOp::await_suspend(std::coroutine_handle<> h)
{
    handle = h;
    reread();
}

void
Proc::SpinOp::reread()
{
    proc.issue(AtomicOp::LOAD, addr, 0, 0, Pending{handle, &result, this});
}

void
Proc::Delay::await_suspend(std::coroutine_handle<> h)
{
    Tick d = cycles > 0 ? cycles : 1;
    proc._sys.eq().scheduleIn(d, [h] { h.resume(); });
}

} // namespace dsm
