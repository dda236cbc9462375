/**
 * @file
 * The processor-side programming interface used by workloads and by the
 * synchronization library.
 *
 * A Proc models one blocking, in-order processor (like the MIPS R4000 the
 * paper simulates): it issues one memory/synchronization operation at a
 * time and waits for completion. Workload coroutines co_await the
 * operations below.
 *
 * The instruction set matches the simulated machine of Section 4.1: the
 * base ISA's loads/stores and load_linked/store_conditional, plus
 * fetch_and_Phi, compare_and_swap, load_exclusive, and drop_copy.
 */

#ifndef DSM_CPU_PROC_HH
#define DSM_CPU_PROC_HH

#include <coroutine>
#include <utility>

#include "net/msg.hh"
#include "proto/controller.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** One simulated processor. */
class Proc
{
  public:
    Proc(System &sys, NodeId id);

    NodeId id() const { return _id; }
    System &sys() { return _sys; }

    /** Awaitable returned by every memory/sync operation. */
    struct Op
    {
        Proc &proc;
        AtomicOp op;
        Addr addr;
        Word value;
        Word expected;
        OpResult result{};

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        OpResult await_resume() const noexcept { return result; }
    };

    /** Ordinary load; result.value is the word read. */
    Op load(Addr a) { return Op{*this, AtomicOp::LOAD, a, 0, 0}; }

    /** Ordinary store. */
    Op store(Addr a, Word v) { return Op{*this, AtomicOp::STORE, a, v, 0}; }

    /** load_exclusive: read @p a, acquiring exclusive ownership. */
    Op
    loadExclusive(Addr a)
    {
        return Op{*this, AtomicOp::LOAD_EXCL, a, 0, 0};
    }

    /** drop_copy: self-invalidate (write back if dirty) the line of @p a. */
    Op dropCopy(Addr a) { return Op{*this, AtomicOp::DROP_COPY, a, 0, 0}; }

    /** test_and_set: set to 1, return the original value. */
    Op testAndSet(Addr a) { return Op{*this, AtomicOp::TAS, a, 1, 0}; }

    /** fetch_and_add. */
    Op fetchAdd(Addr a, Word v) { return Op{*this, AtomicOp::FAA, a, v, 0}; }

    /** fetch_and_store (atomic swap). */
    Op
    fetchStore(Addr a, Word v)
    {
        return Op{*this, AtomicOp::FAS, a, v, 0};
    }

    /** fetch_and_or. */
    Op fetchOr(Addr a, Word v) { return Op{*this, AtomicOp::FAO, a, v, 0}; }

    /**
     * compare_and_swap: if *a == expected, *a = desired.
     * result.success is the verdict; result.value the original value.
     */
    Op
    cas(Addr a, Word expected, Word desired)
    {
        return Op{*this, AtomicOp::CAS, a, desired, expected};
    }

    /** load_linked: read and set the reservation. */
    Op ll(Addr a) { return Op{*this, AtomicOp::LL, a, 0, 0}; }

    /**
     * store_conditional: store @p v if the reservation is still valid.
     * result.success is the verdict.
     */
    Op sc(Addr a, Word v) { return Op{*this, AtomicOp::SC, a, v, 0}; }

    /**
     * Serial-number load_linked (Section 3.1): reads the value and the
     * block's write serial number (result.serial). In-memory primitive:
     * the block must use the UNC or UPD policy.
     */
    Op llSerial(Addr a) { return Op{*this, AtomicOp::LLS, a, 0, 0}; }

    /**
     * Serial-number store_conditional: store @p v iff the block's write
     * serial still equals @p serial. May be issued "bare", with no
     * preceding load_linked -- the property the paper exploits to save
     * a memory access in the MCS lock release.
     */
    Op
    scSerial(Addr a, Word v, Word serial)
    {
        return Op{*this, AtomicOp::SCS, a, v, serial};
    }

    /**
     * Awaitable spin loop: re-read @p addr with ordinary loads while
     * `pred(value)` holds; resumes with the first load result that
     * breaks it. The events are exactly those of
     * `while (pred((co_await load(addr)).value)) {}`, but a re-read
     * that hits the cached line parks the processor on it (spin
     * elision, see Controller) until a message for the block arrives.
     * @p pred must be a pure function of the word.
     */
    struct SpinOp
    {
        Proc &proc;
        Addr addr;
        Controller::SpinPred pred;
        OpResult result{};
        std::coroutine_handle<> handle{};

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        OpResult await_resume() const noexcept { return result; }

        /** Issue the next re-read. */
        void reread();
    };

    /** Spin on @p a while @p pred holds for the word read. */
    template <typename Pred>
    SpinOp
    spinWhile(Addr a, Pred &&pred)
    {
        return SpinOp{*this, a, std::forward<Pred>(pred)};
    }

    /** Awaitable local computation delay of a fixed number of cycles. */
    struct Delay
    {
        Proc &proc;
        Tick cycles;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    /** Spend @p cycles of local computation. */
    Delay compute(Tick cycles) { return Delay{*this, cycles}; }

    /** @name Workload-visible statistics. @{ */
    std::uint64_t opsIssued() const { return _ops_issued; }
    /** @} */

    /** Count @p n loads the controller elided while parked. */
    void creditElidedLoads(std::uint64_t n) { _ops_issued += n; }

    /**
     * Complete the outstanding operation with @p r (the controller
     * calls this at the completion tick): record its sharing pattern,
     * then resume its waiter, or issue a spin loop's next re-read.
     */
    void complete(OpResult r);

  private:
    friend struct Op;
    friend struct SpinOp;
    friend struct Delay;

    /**
     * The outstanding operation: who waits for it, plus the facts the
     * sharing tracker records at completion.
     */
    struct Pending
    {
        /** The awaiting coroutine and the slot its result goes to. */
        std::coroutine_handle<> handle{};
        OpResult *result = nullptr;
        /** Non-null while a spin loop re-reads: it decides whether to
         *  resume handle or re-read. */
        SpinOp *spin = nullptr;
        AtomicOp op = AtomicOp::LOAD;
        Addr addr = 0;
        bool is_sync = false;
        bool is_attempt = false;
    };

    /**
     * Issue to the controller with sharing-pattern instrumentation.
     * @param w The waiter (handle, result, spin) of the operation.
     */
    void issue(AtomicOp op, Addr a, Word v, Word exp, Pending w);

    /** Track consecutive failed attempts (spin-loop iterations). */
    void noteResult(AtomicOp op, const OpResult &r);

    System &_sys;
    NodeId _id;
    std::uint64_t _ops_issued = 0;
    Pending _pending;
    /** Consecutive op completions that left the acquire loop spinning. */
    int _fail_streak = 0;
};

} // namespace dsm

#endif // DSM_CPU_PROC_HH
