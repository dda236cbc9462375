#include "sim/event_queue.hh"

#include <algorithm>

namespace dsm {

EventQueue::~EventQueue()
{
    // Destroy the callbacks of events that never fired; the pool chunks
    // themselves are released by the unique_ptrs.
    for (Entry &en : _heap)
        en.ev->destroy(en.ev);
}

EventQueue::Event *
EventQueue::allocate()
{
    if (_free != nullptr) {
        Event *e = _free;
        _free = e->next_free;
        return e;
    }
    if (_chunk_used == CHUNK_EVENTS) {
        _chunks.push_back(std::make_unique<Event[]>(CHUNK_EVENTS));
        _chunk_used = 0;
    }
    return &_chunks.back()[_chunk_used++];
}

void
EventQueue::release(Event *e)
{
    e->next_free = _free;
    _free = e;
}

void
EventQueue::siftUp(std::size_t i)
{
    Entry e = _heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / ARITY;
        if (!later(_heap[parent], e))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    Entry e = _heap[i];
    std::size_t n = _heap.size();
    for (;;) {
        std::size_t first = ARITY * i + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + ARITY, n);
        std::size_t child = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (later(_heap[child], _heap[c]))
                child = c;
        if (!later(e, _heap[child]))
            break;
        _heap[i] = _heap[child];
        i = child;
    }
    _heap[i] = e;
}

namespace {

/** "No tick": the position of a missing real event or bound. */
constexpr Tick NEVER = ~Tick(0);

} // namespace

void
EventQueue::runTop()
{
    Entry top = _heap.front();
    Event *e = top.ev;
    _heap.front() = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0);
    dsm_assert(top.when >= _now, "event queue time went backwards");
    if (_sample_period != 0)
        sampleUpTo(top.when);
    _now = top.when;
    ++_executed;
    // The callback may schedule new events (allocating from the pool);
    // this event is released only after it finishes running.
    e->invoke(e);
    release(e);
}

std::uint64_t
EventQueue::advance(std::uint64_t limit, Tick bound)
{
    std::uint64_t n = 0;
    while (n < limit) {
        if (!_cohorts.empty()) {
            // Elided events before the next real one run first, in bulk.
            Tick t;
            std::uint64_t key;
            realTop(t, key);
            if (bound != NEVER && t > bound) {
                t = bound + 1;
                key = 0;
            }
            dsm_assert(t != NEVER || limit != UINT64_MAX,
                       "unbounded run with only elided spins left");
            std::uint64_t room = limit - n;
            std::uint64_t g = t == NEVER ? UINT64_MAX : elidedBefore(t, key);
            if (g > room) {
                elide(room, t);
                n = limit;
                break;
            }
            stepGhosts(t, key);
            n += g;
            if (n == limit)
                break;
        }
        if (_heap.empty() || _heap.front().when > bound)
            break;
        runTop();
        ++n;
    }
    return n;
}

bool
EventQueue::step()
{
    return advance(1, NEVER) == 1;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    return advance(limit, NEVER);
}

std::uint64_t
EventQueue::runUntil(Tick when, std::uint64_t limit)
{
    std::uint64_t n = advance(limit, when);
    if (_now < when) {
        // The final clock jump crosses window boundaries too.
        if (_sample_period != 0)
            sampleUpTo(when);
        _now = when;
    }
    return n;
}

// ===================== Ghost chains (spin elision) =======================

void
EventQueue::park(Spinner *owner, Tick period)
{
    dsm_assert(period > 0, "a parked chain needs a nonzero period");
    dsm_assert(_cohorts.empty() || period == _ghost_period,
               "parked chains must share one period");
    _ghost_period = period;
    Cohort c;
    c.g = _now + period;
    c.key = ghostKeys(1);
    c.members.push_back(Member{owner, c.g});
    _cohorts.push_back(std::move(c));
    ++_parked;
    sortCohorts();
}

void
EventQueue::credit(Member &m, Tick g)
{
    if (g == m.g0)
        return;
    m.owner->creditElided((g - m.g0) / _ghost_period);
    m.g0 = g;
}

void
EventQueue::flushElided(Spinner *owner)
{
    for (Cohort &c : _cohorts)
        for (Member &m : c.members)
            if (m.owner == owner) {
                credit(m, c.g);
                return;
            }
    dsm_panic("flush of a spinner that is not parked");
}

void
EventQueue::flushElided()
{
    for (Cohort &c : _cohorts)
        for (Member &m : c.members)
            credit(m, c.g);
}

void
EventQueue::unpark(const Spinner *owner, Tick &when, std::uint64_t &key)
{
    for (std::size_t ci = 0; ci < _cohorts.size(); ++ci) {
        Cohort &c = _cohorts[ci];
        for (std::size_t i = 0; i < c.members.size(); ++i) {
            if (c.members[i].owner != owner)
                continue;
            credit(c.members[i], c.g);
            when = c.g;
            key = c.key + i;
            dsm_assert(when >= _now, "woken chain lies in the past");
            // The woken completion keeps its key; the members after it
            // become their own cohort so no cohort spans it.
            Cohort rest;
            rest.g = c.g;
            rest.key = key + 1;
            rest.members.assign(c.members.begin() + i + 1, c.members.end());
            c.members.resize(i);
            --_parked;
            if (!rest.members.empty())
                _cohorts.insert(_cohorts.begin() + ci + 1, std::move(rest));
            if (_cohorts[ci].members.empty())
                _cohorts.erase(_cohorts.begin() + ci);
            return;
        }
    }
    dsm_panic("wake of a spinner that is not parked");
}

void
EventQueue::realTop(Tick &t, std::uint64_t &key) const
{
    if (_heap.empty()) {
        t = NEVER;
        key = 0;
    } else {
        t = _heap.front().when;
        key = _heap.front().seq;
    }
}

std::uint64_t
EventQueue::ghostKeys(std::size_t n)
{
    if (_rank_seq != _next_seq) {
        _rank_seq = _next_seq;
        _rank_next = 0;
    }
    dsm_assert(_rank_next + n < REAL_RANK, "too many chains share one seq");
    std::uint64_t key = (_next_seq << RANK_BITS) | _rank_next;
    _rank_next += n;
    return key;
}

std::uint64_t
EventQueue::elidedBefore(Tick t, std::uint64_t key) const
{
    std::uint64_t n = 0;
    for (const Cohort &c : _cohorts) {
        if (!before(c.g, c.key, t, key))
            break;
        std::uint64_t per = c.g < t ? (t - c.g - 1) / _ghost_period + 1 : 1;
        n += per * c.members.size();
    }
    return n;
}

Tick
EventQueue::lastElidedBefore(Tick t, std::uint64_t key) const
{
    Tick last = 0;
    for (const Cohort &c : _cohorts) {
        if (!before(c.g, c.key, t, key))
            break;
        Tick at = c.g < t ? c.g + (t - c.g - 1) / _ghost_period *
                                      _ghost_period
                          : t;
        last = std::max(last, at);
    }
    return last;
}

void
EventQueue::stepGhosts(Tick t, std::uint64_t key)
{
    if (_sample_period != 0 && !_cohorts.empty() &&
        before(_cohorts.front().g, _cohorts.front().key, t, key)) {
        // A window boundary crossed by elided events samples after the
        // ones before it and before the ones at or after it.
        Tick last = lastElidedBefore(t, key);
        while (_next_sample <= last) {
            advanceGhosts(_next_sample, 0);
            flushElided();
            _sampler(_next_sample);
            _next_sample += _sample_period;
        }
    }
    advanceGhosts(t, key);
}

void
EventQueue::advanceGhosts(Tick t, std::uint64_t key)
{
    if (_cohorts.empty() ||
        !before(_cohorts.front().g, _cohorts.front().key, t, key))
        return;
    const Tick h = _ghost_period;
    Tick last = _now;
    std::size_t m = 0;
    for (; m < _cohorts.size(); ++m) {
        Cohort &c = _cohorts[m];
        if (!before(c.g, c.key, t, key))
            break;
        std::uint64_t n = c.g < t ? (t - c.g - 1) / h + 1 : 1;
        c.old_g = c.g;
        c.old_key = c.key;
        c.g += n * h;
        last = std::max(last, c.g - h);
        _executed += n * c.members.size();
        _elided += n * c.members.size();
    }
    // Key the stepped cohorts' next completions in the order the
    // unelided run would have scheduled them: by tick, and at a shared
    // tick a cohort already there (larger old tick) before one that
    // caught up with it, then by old position. The keys are fresh:
    // every one of those completions was scheduled after the last real
    // seq handed out.
    auto first = [](const Cohort &a, const Cohort &b) {
        if (a.g != b.g)
            return a.g < b.g;
        if (a.old_g != b.old_g)
            return a.old_g > b.old_g;
        return a.old_key < b.old_key;
    };
    for (std::size_t i = 1; i < m; ++i)
        for (std::size_t j = i;
             j > 0 && first(_cohorts[j], _cohorts[j - 1]); --j)
            std::swap(_cohorts[j], _cohorts[j - 1]);
    for (std::size_t i = 0; i < m; ++i)
        _cohorts[i].key = ghostKeys(_cohorts[i].members.size());
    sortCohorts();
    _now = last;
}

void
EventQueue::elide(std::uint64_t k, Tick t)
{
    if (k == 0)
        return;
    const Tick h = _ghost_period;
    // The k-th elided event lies at the largest tick x whose earlier
    // ticks hold at most k of them. The front cohort alone puts more
    // than k events before front.g + k * h + 1, which bounds the search.
    Tick lo = _cohorts.front().g;
    Tick hi = k < (NEVER - lo) / h ? lo + k * h : NEVER - 1;
    if (hi > t)
        hi = t;
    while (lo < hi) {
        Tick mid = lo + (hi - lo + 1) / 2;
        if (elidedBefore(mid, 0) <= k)
            lo = mid;
        else
            hi = mid - 1;
    }
    std::uint64_t rest = k - elidedBefore(lo, 0);
    stepGhosts(lo, 0);
    if (rest == 0)
        return;
    if (_sample_period != 0)
        sampleUpTo(lo);
    // The first `rest` chains at tick lo run one more iteration each.
    for (std::size_t i = 0; rest > 0; ++i) {
        Cohort &c = _cohorts[i];
        dsm_assert(c.g == lo, "partial elision out of order");
        std::size_t n = c.members.size();
        if (n > rest) {
            Cohort tail;
            tail.g = lo;
            tail.key = c.key + rest;
            tail.members.assign(c.members.begin() + rest, c.members.end());
            c.members.resize(rest);
            n = rest;
            _cohorts.insert(_cohorts.begin() + i + 1, std::move(tail));
        }
        Cohort &s = _cohorts[i];
        s.g += h;
        s.key = ghostKeys(n);
        _executed += n;
        _elided += n;
        rest -= n;
    }
    sortCohorts();
    _now = lo;
}

std::uint64_t
EventQueue::skipElided(std::uint64_t chunk, Tick deadline)
{
    if (_cohorts.empty())
        return 0;
    Tick t;
    std::uint64_t key;
    realTop(t, key);
    if (deadline != NEVER && t > deadline) {
        t = deadline + 1;
        key = 0;
    }
    if (t == NEVER)
        return 0;
    std::uint64_t g = elidedBefore(t, key);
    std::uint64_t m = g / chunk * chunk;
    if (m == g)
        stepGhosts(t, key);
    else
        elide(m, t);
    return m;
}

void
EventQueue::sortCohorts()
{
    for (std::size_t i = 1; i < _cohorts.size(); ++i)
        for (std::size_t j = i;
             j > 0 && before(_cohorts[j].g, _cohorts[j].key,
                             _cohorts[j - 1].g, _cohorts[j - 1].key);
             --j)
            std::swap(_cohorts[j], _cohorts[j - 1]);
    // Neighbours at one tick with contiguous keys move in lockstep
    // from now on: one cohort.
    for (std::size_t i = 1; i < _cohorts.size();) {
        Cohort &a = _cohorts[i - 1];
        Cohort &b = _cohorts[i];
        if (a.g == b.g && a.key + a.members.size() == b.key) {
            a.members.insert(a.members.end(), b.members.begin(),
                             b.members.end());
            _cohorts.erase(_cohorts.begin() + i);
        } else {
            ++i;
        }
    }
}

} // namespace dsm
