/**
 * @file
 * Per-node coherence/synchronization controller — the event-driven
 * *driver* over the pure transition functions in proto/transition.hh.
 *
 * Each processing node has one Controller that plays three roles
 * (CPU side, home directory side, remote side; see transition_*.cc for
 * the protocol itself). The driver owns everything a pure transition
 * cannot: the event queue, the mesh, the memory-module queue, RNG draws
 * (retry backoff jitter), fault injection, handing completed operations
 * back to the node's Proc, and the Tracer/TxnTracer/LineProfiler/
 * Recovery hook sinks bundled in a ProtoHooks. A delivered message
 * becomes a tf::deliver() call whose Outcome is then committed: memory
 * and directory writes applied, stat deltas folded in, and effects
 * walked in order (sends scheduled, trace records emitted,
 * completions/retries/timers armed).
 *
 * The protocol is DASH-style: requests to a busy directory entry are
 * NACKed and retried; invalidation acknowledgements are collected by the
 * requester. The serialized-message counts of Table 1 fall out of these
 * flows and are checked by tests/bench via the Msg::chain field.
 */

#ifndef DSM_PROTO_CONTROLLER_HH
#define DSM_PROTO_CONTROLLER_HH

#include <cstdint>
#include <functional>

#include "cache/cache.hh"
#include "net/msg.hh"
#include "proto/transition.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dsm {

class System;
struct ProtoHooks;

/** Result of a completed processor operation. */
struct OpResult
{
    /**
     * For loads and fetch_and_Phi: the value read (the original value).
     * For compare_and_swap: the original value of the destination.
     * For stores and store_conditional: 0.
     */
    Word value = 0;
    /** For compare_and_swap / store_conditional: the verdict. */
    bool success = true;
    /**
     * The block's write serial number (Section 3.1), reported by every
     * memory-executed operation (UNC/UPD policies). Consumed by the
     * serial-number load_linked/store_conditional primitives.
     */
    Word serial = 0;
};

/**
 * One node's cache/directory controller (transition-function driver).
 *
 * It also parks a spinning processor (spin elision): a load issued by
 * Proc::spinWhile() that hits a resident line and reads a value the
 * spin predicate keeps looping on becomes a ghost chain in the event
 * queue instead of one event per re-read. Any message for that block
 * wakes the chain before the transition runs; the elided hits are
 * credited in bulk (EventQueue::Spinner).
 */
class Controller : private tf::StepCtx, private EventQueue::Spinner
{
  public:
    /** Spin predicate: true while the loop keeps re-reading. */
    using SpinPred = std::function<bool(Word)>;

    Controller(System &sys, NodeId id);

    Controller(const Controller &) = delete;
    Controller &operator=(const Controller &) = delete;

    /**
     * Issue a processor operation. Exactly one operation may be
     * outstanding; the processor model enforces this by blocking. At
     * the operation's completion tick the controller hands the result
     * to its node's Proc::complete().
     * @param spin For a LOAD re-read by a spin loop: the loop's
     *        predicate. When spin elision is on and the load hits a
     *        value it holds for, the processor parks on the line.
     */
    void cpuRequest(AtomicOp op, Addr addr, Word value, Word expected,
                    const SpinPred *spin = nullptr);

    /** True while a processor operation is in flight. */
    bool cpuBusy() const { return _st.txn.active; }

    /** @name Active-transaction introspection (watchdogs, failure
     *  dumps). Meaningful only while cpuBusy(). @{ */
    AtomicOp cpuOp() const { return _st.txn.op; }
    Addr cpuAddr() const { return _st.txn.addr; }
    Tick cpuStart() const { return _st.txn.start; }
    int cpuRetries() const { return _st.txn.retries; }
    bool cpuWaiting() const { return _st.txn.waiting; }
    int cpuAttempt() const { return _st.txn.attempt; }
    /** @} */

    /**
     * The request seq this node currently awaits a reply for, or 0
     * when none is outstanding (recovery layer; see fault/recovery.hh).
     */
    std::uint64_t
    cpuAwaitedSeq() const
    {
        return _st.txn.active && _st.txn.waiting ? _st.txn.seq : 0;
    }

    /** @name Overload-protection park state (serve.*). A transaction
     *  deliberately waiting out a contention backoff or a credit
     *  throttle is parked, not livelocked; the Watchdog classifies it
     *  as `throttled` instead of tripping. @{ */
    enum class ParkKind { NONE, BACKOFF, THROTTLED };
    ParkKind cpuParkKind() const { return _park_kind; }
    Tick cpuParkedUntil() const { return _park_until; }
    /** Cycles this transaction has spent deliberately parked. */
    Tick cpuParkedCycles() const { return _parked_total; }
    /** @} */

    /** Network/local message delivery entry point. */
    void handleMsg(const Msg &m);

    /** The node's cache (exposed for tests and debug reads). */
    Cache &cache() { return _st.cache; }
    const Cache &cache() const { return _st.cache; }

    /** The full protocol-visible state (transition-function view). */
    const tf::CtrlState &state() const { return _st; }

    NodeId id() const { return _id; }

  private:
    /** @name tf::StepCtx — the transitions' read-only world view. @{ */
    bool isSync(Addr a) const override;
    DirEntry dirEntry(Addr block) const override;
    Word memWord(Addr a) const override;
    std::array<Word, BLOCK_WORDS> memBlock(Addr block) const override;
    std::uint64_t activeTxnId(NodeId n) const override;
    /** @} */

    /** Per-call environment handed to every transition function. */
    tf::Env env() const;

    /** The hook sink bundle for this node (see proto/hooks.hh). */
    ProtoHooks hooks();

    /**
     * Commit one transition outcome: apply memory writes, directory
     * writes, and the stat delta, then walk the effects in order —
     * trace/profiler/txn records go through ProtoHooks; SEND, COMPLETE,
     * RETRY, and ARM_TIMER are driver-owned (scheduling, RNG,
     * completing the processor's operation).
     */
    void commit(const tf::Outcome &o);

    /** Complete the active transaction now (COMPLETE effect body). */
    void finishNow(Word value, bool success, Word serial);

    /** RETRY effect body: watchdog/trace/backoff + scheduled redispatch. */
    void driverRetry();

    /** Schedule the loss-recovery retransmission timer (recovery on). */
    void armRecoveryTimer();
    /** Timer body: retransmit if (seq, attempt) is still outstanding. */
    void recoveryTimeout(std::uint64_t seq, int attempt);

    /** Queue a home-targeted message behind the memory module. */
    void homeEnqueue(const Msg &m);
    /** Home service after the memory access: dedup, faults, deliver. */
    void homeService(const Msg &m);

    /** @name Overload-protection serving (serve.enabled). @{ */
    /** Reserve the next memory service slot when work is queued. */
    void homePump();
    /** Slot body: pick a head, form a combining batch, serve it. */
    void homeServiceSlot(Tick when);
    /** Late service marks for a queued request served at @p when. */
    void noteHomeService(const Msg &m, Tick enq, Tick when);
    /** Credit feedback from a reply: enter/extend the throttle. */
    void noteCredit(int qdepth);
    /** @} */

    /** Stamp src and inject into the mesh. */
    void send(Msg m);
    Tick now() const;

    /** @name Spin elision. @{ */
    /** Park on the line instead of scheduling a hit's completion. */
    void parkSpin(const tf::Effect &complete);
    /** Turn the parked completion back into a real event. */
    void wakeSpin();
    /** EventQueue::Spinner: credit @p n elided load iterations. */
    void creditElided(std::uint64_t n) override;
    /** @} */

    System &_sys;
    NodeId _id;
    tf::CtrlState _st;

    /** Tracer flow id of the outstanding operation (driver-only). */
    std::uint32_t _trace_flow = 0;

    /** @name Spin elision state. @{ */
    /** Predicate of the spin load being issued (during issue only). */
    const SpinPred *_spin_pred = nullptr;
    bool _spin_parked = false;
    /** The parked load's completion: value, serial, hit latency. */
    Word _spin_value = 0;
    Word _spin_serial = 0;
    Tick _spin_period = 0;
    /** @} */

    /** @name Overload-protection driver state (serve.enabled only). @{ */
    /** A memory service slot is reserved for this home's queue. */
    bool _slot_scheduled = false;
    /** This requester is credit-throttled until this tick. */
    Tick _throttled_until = 0;
    /** Park state of the active transaction (watchdog classification). */
    Tick _park_until = 0;
    ParkKind _park_kind = ParkKind::NONE;
    /** Total parked cycles of the active transaction. */
    Tick _parked_total = 0;
    /** @} */
};

} // namespace dsm

#endif // DSM_PROTO_CONTROLLER_HH
