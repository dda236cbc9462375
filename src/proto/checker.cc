#include "proto/checker.hh"

#include <algorithm>
#include <map>

#include "cpu/system.hh"
#include "sim/logging.hh"
#include "trace/txn.hh"

namespace dsm {

CoherenceView
coherenceView(System &sys)
{
    CoherenceView v;

    // Gather every cached copy, per block, from the controllers'
    // transition-function state.
    std::map<Addr, std::vector<CopyView>> copies;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        for (const CacheLine &line : sys.ctrl(n).state().cache.lines()) {
            if (line.valid())
                copies[line.base].push_back(
                    CopyView{n, line.state, line.data});
        }
    }

    // Gather every directory entry, per block.
    std::map<Addr, DirEntry> dirs;
    for (NodeId n = 0; n < sys.numProcs(); ++n) {
        for (const auto &kv : sys.dir(n).entries()) {
            if (sys.homeOf(kv.first) != n) {
                v.structural.push_back(
                    csprintf("directory entry for block %#llx at "
                             "non-home node %d",
                             (unsigned long long)kv.first, n));
                continue;
            }
            dirs[kv.first] = kv.second;
        }
    }

    std::map<Addr, BlockView> blocks;
    for (auto &kv : dirs) {
        BlockView &b = blocks[kv.first];
        b.block = kv.first;
        b.has_dir = true;
        b.dir = kv.second;
    }
    for (auto &kv : copies) {
        BlockView &b = blocks[kv.first];
        b.block = kv.first;
        b.copies = std::move(kv.second);
    }
    for (auto &kv : blocks) {
        kv.second.mem = sys.store().readBlock(kv.first);
        kv.second.unc_sync = sys.isSync(kv.first) &&
                             sys.cfg().sync.policy == SyncPolicy::UNC;
        v.blocks.push_back(std::move(kv.second));
    }
    return v;
}

std::vector<std::string>
checkCoherenceView(const CoherenceView &v)
{
    std::vector<std::string> violations = v.structural;
    auto complain = [&violations](std::string s) {
        violations.push_back(std::move(s));
    };

    for (const BlockView &b : v.blocks) {
        Addr block = b.block;

        if (!b.has_dir) {
            if (!b.copies.empty())
                complain(csprintf("block %#llx cached with no directory "
                                  "entry",
                                  (unsigned long long)block));
            continue;
        }
        if (b.dir.busy)
            complain(csprintf("block %#llx left busy after quiesce",
                              (unsigned long long)block));

        int exclusives = 0, shareds = 0;
        for (const CopyView &c : b.copies) {
            if (c.state == LineState::EXCLUSIVE)
                ++exclusives;
            else
                ++shareds;
        }
        if (exclusives > 1)
            complain(csprintf("block %#llx has %d exclusive copies",
                              (unsigned long long)block, exclusives));
        if (exclusives == 1 && shareds > 0)
            complain(csprintf("block %#llx mixes exclusive and shared "
                              "copies",
                              (unsigned long long)block));

        switch (b.dir.state) {
          case DirState::UNCACHED:
            if (!b.copies.empty())
                complain(csprintf("block %#llx cached while directory "
                                  "says uncached",
                                  (unsigned long long)block));
            break;
          case DirState::EXCLUSIVE: {
            if (exclusives != 1) {
                complain(csprintf("block %#llx: directory exclusive at "
                                  "%d but %d exclusive copies exist",
                                  (unsigned long long)block, b.dir.owner,
                                  exclusives));
                break;
            }
            const CopyView &owner_copy = *std::find_if(
                b.copies.begin(), b.copies.end(), [](const CopyView &c) {
                    return c.state == LineState::EXCLUSIVE;
                });
            if (owner_copy.node != b.dir.owner)
                complain(csprintf("block %#llx: directory owner %d but "
                                  "node %d holds it exclusively",
                                  (unsigned long long)block, b.dir.owner,
                                  owner_copy.node));
            break;
          }
          case DirState::SHARED: {
            if (exclusives != 0)
                complain(csprintf("block %#llx: exclusive copy while "
                                  "directory says shared",
                                  (unsigned long long)block));
            for (const CopyView &c : b.copies) {
                if (!b.dir.isSharer(c.node))
                    complain(csprintf("block %#llx: node %d holds a "
                                      "copy but is not a sharer",
                                      (unsigned long long)block,
                                      c.node));
                if (c.data != b.mem)
                    complain(csprintf("block %#llx: node %d's shared "
                                      "copy differs from memory",
                                      (unsigned long long)block,
                                      c.node));
            }
            break;
          }
        }

        // UNC synchronization data must never be cached.
        if (b.unc_sync && !b.copies.empty())
            complain(csprintf("UNC sync block %#llx is cached",
                              (unsigned long long)block));
    }

    return violations;
}

std::vector<std::string>
checkCoherence(System &sys)
{
    return checkCoherenceView(coherenceView(sys));
}

int
expectedChain(const ChainFact &f)
{
    // Delegate to the transaction tracer's analytic model so the
    // simulator and the model checker validate against one formula.
    TxnRecord r;
    r.proc = f.requester;
    r.serviced = f.serviced;
    r.forwarded = f.forwarded;
    r.home = f.home;
    r.owner = f.owner;
    r.fanout_mask = f.fanout_mask;
    return TxnTracer::expectedChain(r);
}

std::vector<std::string>
checkChainFacts(const std::vector<ChainFact> &facts)
{
    std::vector<std::string> out;
    for (const ChainFact &f : facts) {
        int expect = expectedChain(f);
        if (f.observed_chain != expect)
            out.push_back(csprintf(
                "%s at proc %d (home %d%s%s): observed chain %d, "
                "Table 1 expects %d",
                toString(f.op), f.requester, f.home,
                f.forwarded ? ", forwarded" : "",
                f.serviced ? "" : ", unserviced",
                f.observed_chain, expect));
    }
    return out;
}

std::vector<std::string>
checkChains(System &sys)
{
    const TxnTracer &tx = sys.txns();
    std::vector<std::string> out = tx.divergenceMessages();
    std::uint64_t total = tx.chainDivergences();
    if (total > out.size())
        out.push_back(csprintf("...and %llu more chain divergences",
                               (unsigned long long)(total - out.size())));
    return out;
}

std::vector<std::string>
checkFaultAccounting(System &sys)
{
    std::vector<std::string> out;
    const FaultConfig &cfg = sys.cfg().faults;
    // Nothing may inject or count while injection is off, and every
    // armed layer must exist: the owners' presence is the contract.
    if (!cfg.enabled) {
        if (sys.faults() != nullptr)
            out.push_back("fault injection is disabled but a fault "
                          "plan is armed");
        if (sys.recovery() != nullptr)
            out.push_back("fault injection is disabled but the "
                          "recovery layer is armed");
        return out;
    }
    if (sys.faults() == nullptr ||
        cfg.recoveryEnabled() != (sys.recovery() != nullptr)) {
        out.push_back("the armed fault layers do not match the fault "
                      "config");
        return out;
    }
    const FaultPlan::Counters &fc = sys.faults()->counters();
    SysStats agg = sys.stats();
    bool quiesced = sys.tasksPending() == 0;

    if (fc.nacks_injected > agg.nacks)
        out.push_back(csprintf("injected NACKs (%llu) exceed total "
                               "NACKs sent (%llu)",
                               (unsigned long long)fc.nacks_injected,
                               (unsigned long long)agg.nacks));

    if (!cfg.recoveryEnabled()) {
        // On a quiesced system every NACK was delivered and scheduled
        // exactly one retry, so the totals must agree; a gap means a
        // NACK was lost or a retry was manufactured.
        if (quiesced && agg.retries != agg.nacks)
            out.push_back(csprintf("quiesced but retries (%llu) != "
                                   "NACKs (%llu)",
                                   (unsigned long long)agg.retries,
                                   (unsigned long long)agg.nacks));
        return out;
    }
    const Recovery &rec = *sys.recovery();
    const Recovery::Counters &rc = rec.counters();

    // Under message loss a NACK counts one retry only if the requester
    // consumed it: subtract NACKs lost in the mesh and those discarded
    // as stale duplicates, add NACKs the home replayed from its reply
    // cache (extra deliveries the nacks counter never saw). Compared as
    // sums to stay in unsigned arithmetic.
    if (quiesced && agg.retries + rc.nacks_lost + rc.nacks_stale !=
                        agg.nacks + rc.nacks_replayed)
        out.push_back(csprintf(
            "quiesced but retries (%llu) + nacks_lost (%llu) + "
            "nacks_stale (%llu) != NACKs (%llu) + nacks_replayed (%llu)",
            (unsigned long long)agg.retries,
            (unsigned long long)rc.nacks_lost,
            (unsigned long long)rc.nacks_stale,
            (unsigned long long)agg.nacks,
            (unsigned long long)rc.nacks_replayed));

    // The drop ledger: the injector and the recovery layer must agree
    // on what was lost, the request/reply split must partition it, and
    // on a quiesced system every drop is covered — by a retransmission
    // or by the quarantine of its link. An uncovered drop would be a
    // silently-lost message.
    if (fc.msg_drops + fc.flaky_drops + fc.msg_corruptions != rc.drops)
        out.push_back(csprintf("injector drops (%llu msg + %llu flaky + "
                               "%llu corrupt) != recovery ledger drops "
                               "(%llu)",
                               (unsigned long long)fc.msg_drops,
                               (unsigned long long)fc.flaky_drops,
                               (unsigned long long)fc.msg_corruptions,
                               (unsigned long long)rc.drops));
    if (rc.req_drops + rc.reply_drops != rc.drops)
        out.push_back(csprintf("drop split (%llu req + %llu reply) != "
                               "total drops (%llu)",
                               (unsigned long long)rc.req_drops,
                               (unsigned long long)rc.reply_drops,
                               (unsigned long long)rc.drops));
    if (quiesced) {
        std::uint64_t pending = rec.pendingDrops();
        if (pending != 0)
            out.push_back(csprintf("quiesced but %llu drops are still "
                                   "pending in the recovery ledger",
                                   (unsigned long long)pending));
        if (rc.drops !=
            rc.retransmit_covered + rc.quarantine_covered)
            out.push_back(csprintf(
                "quiesced but drops (%llu) != retransmit-covered "
                "(%llu) + quarantine-covered (%llu)",
                (unsigned long long)rc.drops,
                (unsigned long long)rc.retransmit_covered,
                (unsigned long long)rc.quarantine_covered));
    }

    // Faulty-channel ledger. Every corruption must be caught at the
    // ejection checksum verify — a gap here is an undetected corruption
    // that delivered a mangled payload. Detection is synchronous with
    // injection, so this holds even mid-run.
    if (rc.corrupt_detected != fc.msg_corruptions)
        out.push_back(csprintf("undetected payload corruptions: "
                               "injected %llu, detected %llu",
                               (unsigned long long)fc.msg_corruptions,
                               (unsigned long long)rc.corrupt_detected));
    if (quiesced) {
        // Replays and skewed deliveries are deferred, so they reconcile
        // only once the event queue has drained: every injected
        // duplicate was absorbed by a sequence guard and every skewed
        // message was eventually delivered.
        if (rc.dups_absorbed != fc.msg_dups)
            out.push_back(csprintf("quiesced but duplicates absorbed "
                                   "(%llu) != duplicates injected (%llu)",
                                   (unsigned long long)rc.dups_absorbed,
                                   (unsigned long long)fc.msg_dups));
        if (rc.reorders_delivered != fc.msg_reorders)
            out.push_back(csprintf("quiesced but reorders delivered "
                                   "(%llu) != reorders injected (%llu)",
                                   (unsigned long long)rc.reorders_delivered,
                                   (unsigned long long)fc.msg_reorders));
    }
    return out;
}

} // namespace dsm
