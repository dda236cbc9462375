#include "cache/cache.hh"

#include "sim/logging.hh"

namespace dsm {

const char *
toString(LineState s)
{
    switch (s) {
      case LineState::INVALID: return "Invalid";
      case LineState::SHARED: return "Shared";
      case LineState::EXCLUSIVE: return "Exclusive";
    }
    return "?";
}

Cache::Cache(unsigned sets, unsigned ways)
    : _sets(sets), _ways(ways), _lines(sets * ways)
{
    dsm_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "sets must be a power of two");
    dsm_assert(ways > 0, "ways must be nonzero");
}

unsigned
Cache::setIndex(Addr a) const
{
    return static_cast<unsigned>((a / BLOCK_BYTES) & (_sets - 1));
}

CacheLine *
Cache::lookup(Addr a)
{
    Addr base = blockBase(a);
    unsigned s = setIndex(a);
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &line = _lines[s * _ways + w];
        if (line.valid() && line.base == base) {
            line.lru = ++_stamp;
            return &line;
        }
    }
    return nullptr;
}

void
Cache::creditHits(Addr a, std::uint64_t n)
{
    CacheLine *line = lookup(a);
    dsm_assert(line != nullptr, "hit credit for a block not resident");
    _stamp += n - 1;
    line->lru = _stamp;
    _stats.hits += n;
}

const CacheLine *
Cache::peek(Addr a) const
{
    Addr base = blockBase(a);
    unsigned s = setIndex(a);
    for (unsigned w = 0; w < _ways; ++w) {
        const CacheLine &line = _lines[s * _ways + w];
        if (line.valid() && line.base == base)
            return &line;
    }
    return nullptr;
}

CacheLine *
Cache::allocate(Addr a, Victim *victim)
{
    Addr base = blockBase(a);
    unsigned s = setIndex(a);
    dsm_assert(peek(a) == nullptr,
               "allocate of already-present block %#llx",
               static_cast<unsigned long long>(base));

    CacheLine *choice = nullptr;
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &line = _lines[s * _ways + w];
        if (!line.valid()) {
            choice = &line;
            break;
        }
        if (choice == nullptr || line.lru < choice->lru)
            choice = &line;
    }

    if (victim != nullptr)
        victim->valid = false;
    if (choice->valid()) {
        ++_stats.evictions;
        clearReservationIfCovers(choice->base);
        if (victim != nullptr) {
            victim->valid = true;
            victim->base = choice->base;
            victim->state = choice->state;
            victim->data = choice->data;
        }
    }

    choice->base = base;
    choice->state = LineState::INVALID;
    choice->data.fill(0);
    choice->lru = ++_stamp;
    return choice;
}

void
Cache::invalidate(Addr a)
{
    Addr base = blockBase(a);
    clearReservationIfCovers(base);
    unsigned s = setIndex(a);
    for (unsigned w = 0; w < _ways; ++w) {
        CacheLine &line = _lines[s * _ways + w];
        if (line.valid() && line.base == base) {
            line.state = LineState::INVALID;
            return;
        }
    }
}

unsigned
Cache::validLines() const
{
    unsigned n = 0;
    for (const CacheLine &line : _lines)
        if (line.valid())
            ++n;
    return n;
}

} // namespace dsm
