/** @file Mutual-exclusion tests for the lock library, across the full
 *  (primitive x policy x variant) matrix the paper studies. */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "sync/mcs_lock.hh"
#include "sync/tts_lock.hh"

using namespace dsmtest;

namespace {

/** A tuple describing one lock configuration under test. */
struct LockCase
{
    Primitive prim;
    SyncPolicy policy;
    bool load_exclusive;
    bool drop_copy;
};

std::string
caseName(const testing::TestParamInfo<LockCase> &info)
{
    std::string s = toString(info.param.prim);
    s += "_";
    s += toString(info.param.policy);
    if (info.param.load_exclusive)
        s += "_lx";
    if (info.param.drop_copy)
        s += "_dc";
    return s;
}

std::vector<LockCase>
allCases()
{
    std::vector<LockCase> v;
    for (Primitive prim :
         {Primitive::FAP, Primitive::CAS, Primitive::LLSC}) {
        for (SyncPolicy pol :
             {SyncPolicy::INV, SyncPolicy::UPD, SyncPolicy::UNC}) {
            v.push_back({prim, pol, false, false});
        }
    }
    // Auxiliary-instruction combinations (INV only, as recommended).
    v.push_back({Primitive::CAS, SyncPolicy::INV, true, false});
    v.push_back({Primitive::CAS, SyncPolicy::INV, true, true});
    v.push_back({Primitive::FAP, SyncPolicy::INV, false, true});
    return v;
}

Config
caseConfig(const LockCase &c, int procs = 8)
{
    Config cfg = smallConfig(c.policy, procs);
    cfg.sync.use_load_exclusive = c.load_exclusive;
    cfg.sync.use_drop_copy = c.drop_copy;
    return cfg;
}

/** Increment a lock-protected counter; also check mutual exclusion via
 *  an "inside" flag that must never be seen set by an entrant. */
template <typename Lock>
Task
criticalSections(Proc &p, Lock &lock, Addr counter, Addr inside, int n,
                 bool *violation)
{
    for (int i = 0; i < n; ++i) {
        co_await lock.acquire(p);
        OpResult in = co_await p.load(inside);
        if (in.value != 0)
            *violation = true;
        co_await p.store(inside, 1);
        OpResult c = co_await p.load(counter);
        co_await p.compute(3);
        co_await p.store(counter, c.value + 1);
        co_await p.store(inside, 0);
        co_await lock.release(p);
    }
}

} // namespace

class TtsLockMatrix : public testing::TestWithParam<LockCase>
{
};

TEST_P(TtsLockMatrix, MutualExclusionAndProgress)
{
    System sys(caseConfig(GetParam()));
    TtsLock lock(sys, GetParam().prim);
    Addr counter = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    Addr inside = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    bool violation = false;
    const int per_proc = 8;
    for (NodeId n = 0; n < sys.numProcs(); ++n)
        sys.spawn(criticalSections(sys.proc(n), lock, counter, inside,
                                   per_proc, &violation));
    runAll(sys);
    EXPECT_FALSE(violation);
    EXPECT_EQ(sys.debugRead(counter),
              static_cast<Word>(sys.numProcs() * per_proc));
    EXPECT_EQ(lock.acquisitions(),
              static_cast<std::uint64_t>(sys.numProcs() * per_proc));
    EXPECT_EQ(sys.debugRead(lock.addr()), 0u); // lock released
}

INSTANTIATE_TEST_SUITE_P(Matrix, TtsLockMatrix,
                         testing::ValuesIn(allCases()), caseName);

class McsLockMatrix : public testing::TestWithParam<LockCase>
{
};

TEST_P(McsLockMatrix, MutualExclusionAndProgress)
{
    System sys(caseConfig(GetParam()));
    McsLock lock(sys, GetParam().prim);
    Addr counter = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    Addr inside = sys.alloc(BLOCK_BYTES, BLOCK_BYTES);
    bool violation = false;
    const int per_proc = 8;
    for (NodeId n = 0; n < sys.numProcs(); ++n)
        sys.spawn(criticalSections(sys.proc(n), lock, counter, inside,
                                   per_proc, &violation));
    runAll(sys);
    EXPECT_FALSE(violation);
    EXPECT_EQ(sys.debugRead(counter),
              static_cast<Word>(sys.numProcs() * per_proc));
    EXPECT_EQ(sys.debugRead(lock.tailAddr()), 0u); // queue empty
}

INSTANTIATE_TEST_SUITE_P(Matrix, McsLockMatrix,
                         testing::ValuesIn(allCases()), caseName);

TEST(Locks, UncontendedTtsAcquireIsCheap)
{
    System sys(smallConfig(SyncPolicy::INV));
    TtsLock lock(sys, Primitive::CAS);
    // Warm up: take and release once.
    sys.spawn([](Proc &p, TtsLock &l) -> Task {
        co_await l.acquire(p);
        co_await l.release(p);
        // Re-acquire: the line is still cached exclusive, so this must
        // not produce any network traffic.
        co_await l.acquire(p);
        co_await l.release(p);
    }(sys.proc(0), lock));
    runAll(sys);
    EXPECT_EQ(lock.failedAttempts(), 0u);
}
