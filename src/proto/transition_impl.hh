/**
 * @file
 * Internal helpers shared by the transition-function implementation
 * files (transition.cc, transition_cpu.cc, transition_home.cc,
 * transition_net.cc). Not part of the public API.
 */

#ifndef DSM_PROTO_TRANSITION_IMPL_HH
#define DSM_PROTO_TRANSITION_IMPL_HH

#include "proto/transition.hh"

namespace dsm {
namespace tf {
namespace detail {

/** Chain length of a message sent with parent chain @p parent. */
inline int
chainNext(int parent, NodeId src, NodeId dst)
{
    return parent + (src != dst ? 1 : 0);
}

/** New value of a fetch_and_Phi/store on @p old with @p operand. */
Word applyOp(AtomicOp op, Word old, Word operand);

/** @name Effect emitters (append to o.effects in call order). @{ */
void emitSend(Outcome &o, const Msg &m, Tick delay = 0);
void emitTraceLine(Outcome &o, Addr block, LineState from, LineState to);
void emitTraceResv(Outcome &o, Addr block, bool clear);
void emitTraceNack(Outcome &o, NodeId victim, Addr block,
                   MsgType req_type);
void emitLp(Outcome &o, EffectKind kind, Addr block,
            NodeId node = INVALID_NODE);
void emitTxnMark(Outcome &o, std::uint64_t id, std::uint8_t phase,
                 Tick delay, NodeId node);
void emitTxnService(Outcome &o, std::uint64_t id,
                    const ServiceFacts &facts);
void emitComplete(Outcome &o, Tick delay, Word value, bool success,
                  Word serial = 0);
void emitRetry(Outcome &o);
void emitArmTimer(Outcome &o);
/** @} */

/** Change a directory entry's stable state, emitting the transition. */
void setDirState(Outcome &o, DirEntry &e, Addr block, DirState to);

/** Reply to a request (fills src-independent routing + dedup capture). */
void reply(const Env &env, CtrlState &s, Outcome &o, const Msg &req,
           Msg resp);
/** Cache @p resp as the reply to @p requester's seq @p seq. */
void captureReply(CtrlState &s, NodeId requester, std::uint64_t seq,
                  const Msg &resp);
/** NACK a request (stat + profiler + trace + reply). */
void sendNack(const Env &env, CtrlState &s, Outcome &o, const Msg &req);
/** NACK a node that is not the direct message source. */
void nackNode(const Env &env, CtrlState &s, Outcome &o, NodeId n,
              Addr block);

/** Install a block in the cache, handling victim write-back. */
CacheLine *installLine(const Env &env, CtrlState &s, Outcome &o,
                       Addr addr, LineState state,
                       const std::array<Word, BLOCK_WORDS> &data);
/** Write back / drop an evicted line. */
void evictVictim(const Env &env, CtrlState &s, Outcome &o,
                 const Victim &v);

/** Build the network request message for the active transaction. */
Msg buildReq(const Env &env, const CtrlState &s, MsgType t);

/** Read a home-memory word/block honoring writes already in @p o. */
Word readWordAfter(const Env &env, const Outcome &o, Addr a);
std::array<Word, BLOCK_WORDS> readBlockAfter(const Env &env,
                                             const Outcome &o,
                                             Addr block);

/** @name Per-role delivery bodies (dispatched by deliver()). @{ */
void cpuResponse(const Env &env, CtrlState &s, Outcome &o, const Msg &m);
void homeDispatch(const Env &env, CtrlState &s, Outcome &o,
                  const Msg &m);
void handleInv(const Env &env, CtrlState &s, Outcome &o, const Msg &m);
void handleUpdate(const Env &env, CtrlState &s, Outcome &o,
                  const Msg &m);
void handleFwd(const Env &env, CtrlState &s, Outcome &o, const Msg &m);
/** @} */

} // namespace detail
} // namespace tf
} // namespace dsm

#endif // DSM_PROTO_TRANSITION_IMPL_HH
