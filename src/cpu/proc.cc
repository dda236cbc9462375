#include "cpu/proc.hh"

#include "cpu/system.hh"
#include "sim/logging.hh"

namespace dsm {

Proc::Proc(System &sys, NodeId id) : _sys(sys), _id(id) {}

void
Proc::issue(AtomicOp op, Addr a, Word v, Word exp, Controller::DoneFn done,
            const Controller::SpinPred *spin)
{
    ++_ops_issued;
    bool is_sync = _sys.isSync(a) && op != AtomicOp::DROP_COPY;
    // Contention (Figure 2) counts processors concurrently *attempting
    // an atomic access*; ordinary loads (e.g. test-and-test-and-set
    // spinning on a cached copy) are not attempts. Write-run tracking
    // counts every access: reads by other processors end a run.
    bool is_attempt = is_sync && (isAtomic(op) || op == AtomicOp::LL ||
                                  op == AtomicOp::LLS);
    if (is_attempt)
        _sys.sharing().beginAttempt(a, _id);

    // If previous attempts on an acquire loop failed, tell the
    // transaction tracer how many spin iterations preceded this issue.
    if (_sys.txns().enabled() && _fail_streak > 0)
        _sys.txns().noteLoopIter(_id, _fail_streak);

    NodeId id = _id;
    Addr addr = a;
    AtomicOp the_op = op;
    System *sys = &_sys;
    Proc *self = this;
    _sys.ctrl(_id).cpuRequest(
        op, a, v, exp,
        [sys, id, addr, the_op, is_sync, is_attempt, self,
         done = std::move(done)](OpResult r) {
            if (is_attempt)
                sys->sharing().endAttempt(addr, id);
            if (is_sync) {
                bool is_write = false;
                switch (the_op) {
                  case AtomicOp::STORE:
                  case AtomicOp::TAS:
                  case AtomicOp::FAA:
                  case AtomicOp::FAS:
                  case AtomicOp::FAO:
                    is_write = true;
                    break;
                  case AtomicOp::CAS:
                  case AtomicOp::SC:
                  case AtomicOp::SCS:
                    is_write = r.success;
                    break;
                  default:
                    break;
                }
                sys->sharing().recordAccess(addr, id, is_write);
            }
            self->noteResult(the_op, r);
            done(r);
        },
        spin);
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
    proc.issue(op, addr, value, expected,
               [this, h](OpResult r) {
                   result = r;
                   h.resume();
               });
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
    proc.issue(AtomicOp::LOAD, addr, 0, 0,
               [this](OpResult r) {
                   if (pred(r.value)) {
                       reread();
                   } else {
                       result = r;
                       handle.resume();
                   }
               },
               &pred);
}

void
Proc::Delay::await_suspend(std::coroutine_handle<> h)
{
    Tick d = cycles > 0 ? cycles : 1;
    proc._sys.eq().scheduleIn(d, [h] { h.resume(); });
}

} // namespace dsm
