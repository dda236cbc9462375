/**
 * @file
 * Coherence / Table 1 / fault-accounting invariant checkers.
 *
 * The core invariants run over *snapshots* (CoherenceView) and *facts*
 * (ChainFact), not over a live System: the event-driven simulator and
 * the exhaustive model checker (mc/explorer.cc) build the same
 * structures from their own worlds and share one checking code path.
 * No checker peeks into controller internals — everything it consumes
 * is public transition-function state (tf::CtrlState via
 * Controller::state()) or data carried by tf::Outcome records
 * (ServiceFacts from TXN_SERVICE effects, chains from messages).
 *
 * Coherence invariants (quiesced system, no in-flight traffic):
 *
 *  - at most one EXCLUSIVE copy of any block exists, and the home
 *    directory names exactly that node as owner;
 *  - SHARED copies only exist for blocks the directory has SHARED, on
 *    nodes in the sharer vector, with data identical to memory;
 *  - UNCACHED blocks have no cached copies at all;
 *  - no directory entry is left busy;
 *  - UNC-policy synchronization blocks are never cached anywhere.
 */

#ifndef DSM_PROTO_CHECKER_HH
#define DSM_PROTO_CHECKER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "mem/directory.hh"
#include "net/msg.hh"
#include "sim/types.hh"

namespace dsm {

class System;

/** One node's cached copy of a block (snapshot). */
struct CopyView
{
    NodeId node = INVALID_NODE;
    LineState state = LineState::INVALID;
    std::array<Word, BLOCK_WORDS> data{};
};

/** Snapshot of everything known about one block. */
struct BlockView
{
    Addr block = 0;
    bool has_dir = false;       ///< a directory entry exists at the home
    DirEntry dir;               ///< valid when has_dir
    std::vector<CopyView> copies;
    std::array<Word, BLOCK_WORDS> mem{};
    /** The block is UNC-policy synchronization data (never cacheable). */
    bool unc_sync = false;
};

/**
 * A full-system coherence snapshot: per-block views plus structural
 * complaints collected while building it (e.g. a directory entry found
 * at a non-home node).
 */
struct CoherenceView
{
    std::vector<BlockView> blocks;
    std::vector<std::string> structural;
};

/** Build the snapshot of a (quiesced) simulated system. */
CoherenceView coherenceView(System &sys);

/**
 * Check every coherence invariant on a snapshot.
 * @return a description of each violation; empty means coherent.
 */
std::vector<std::string> checkCoherenceView(const CoherenceView &v);

/**
 * checkCoherenceView(coherenceView(sys)) — the simulator entry point.
 */
std::vector<std::string> checkCoherence(System &sys);

/**
 * Everything needed to validate one completed operation against the
 * paper's Table 1 serialized-message chains. The model checker fills
 * these directly from tf::Outcome records: the ServiceFacts of the
 * last TXN_SERVICE effect the home emitted for the operation, and the
 * observed chain at its COMPLETE effect.
 */
struct ChainFact
{
    AtomicOp op = AtomicOp::LOAD;
    NodeId requester = INVALID_NODE;
    NodeId home = INVALID_NODE;
    /** A home directory serviced the final attempt (misses only). */
    bool serviced = false;
    bool forwarded = false;
    NodeId owner = INVALID_NODE;
    std::uint64_t fanout_mask = 0;
    /** Longest serialized chain carried by any received message. */
    int observed_chain = 0;
};

/**
 * Analytic Table 1 serialized chain length for the case @p f observed:
 * the longest of the reply path (requester -> home [-> owner -> home]
 * -> requester) and any invalidation/update path (requester -> home ->
 * target -> requester), counting only inter-node messages. Unserviced
 * (cache-hit / local) cases are 0. Shares TxnTracer::expectedChain's
 * arithmetic.
 */
int expectedChain(const ChainFact &f);

/**
 * Check each fact's observed chain against its Table 1 expectation.
 * @return a description of each divergence; empty means all match.
 */
std::vector<std::string> checkChainFacts(
    const std::vector<ChainFact> &facts);

/**
 * Report the transaction tracer's Table 1 chain divergences: completed
 * operations whose observed serialized-message chain differs from the
 * analytic count for their (policy, op, directory state) case. Requires
 * Config::txn_trace.enabled; with tracing off the result is empty.
 * @return a description of each divergence; empty means all chains match.
 */
std::vector<std::string> checkChains(System &sys);

/**
 * Reconcile the fault injector's counters with the protocol statistics
 * they must agree with:
 *
 *  - with fault injection disabled no fault plan and no recovery
 *    ledger exist (the zero-cost-when-off promise), and with it
 *    enabled the plan — and, given req_timeout, the ledger — does;
 *  - injected NACKs are a subset of all NACKs sent;
 *  - on a quiesced system (no tasks pending) every NACK — injected or
 *    organic — produced exactly one retry, so total retries equal
 *    total NACKs; under message loss the identity is corrected for
 *    NACKs lost in the mesh, discarded as stale by the requester
 *    guard, or replayed from the home's reply cache;
 *  - with the recovery layer armed the drop ledger reconciles: the
 *    injector's msg_drops + flaky_drops equal the ledger's drops, the
 *    request/reply split partitions them, and on a quiesced system
 *    every drop is covered by a retransmission or a link quarantine
 *    (a silently-lost message is a violation, not a hang).
 *
 * Counters are compared over the same window: System::clearStats()
 * resets the fault counters together with the protocol counters.
 * @return a description of each mismatch; empty means reconciled.
 */
std::vector<std::string> checkFaultAccounting(System &sys);

} // namespace dsm

#endif // DSM_PROTO_CHECKER_HH
