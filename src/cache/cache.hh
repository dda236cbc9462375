/**
 * @file
 * Set-associative write-back cache with 32-byte blocks.
 *
 * Line states follow the DASH protocol: INVALID, SHARED (read-only,
 * memory current), EXCLUSIVE (this cache owns the only copy; treated as
 * potentially dirty, so evictions of EXCLUSIVE lines always write back).
 *
 * Each cache also holds the processor's load_linked reservation (one
 * reservation bit plus a reservation address register, as on the MIPS
 * R4000 and in Section 3.1).
 */

#ifndef DSM_CACHE_CACHE_HH
#define DSM_CACHE_CACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace dsm {

/** Stable cache-line states. */
enum class LineState
{
    INVALID,
    SHARED,
    EXCLUSIVE,
};

const char *toString(LineState s);

/** One cache line. */
struct CacheLine
{
    Addr base = 0; ///< block base address
    LineState state = LineState::INVALID;
    std::array<Word, BLOCK_WORDS> data{};
    std::uint64_t lru = 0; ///< last-touch stamp

    bool valid() const { return state != LineState::INVALID; }

    Word
    readWord(Addr a) const
    {
        return data[wordInBlock(a)];
    }

    void
    writeWord(Addr a, Word v)
    {
        data[wordInBlock(a)] = v;
    }
};

/** An evicted line that needs further handling by the controller. */
struct Victim
{
    bool valid = false;
    Addr base = 0;
    LineState state = LineState::INVALID;
    std::array<Word, BLOCK_WORDS> data{};
};

/** Per-cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations_received = 0;
};

/**
 * The cache proper. The controller is responsible for coherence actions;
 * the cache only tracks state, data, and replacement.
 */
class Cache
{
  public:
    /**
     * @param sets Number of sets (power of two).
     * @param ways Associativity.
     */
    Cache(unsigned sets, unsigned ways);

    /** Find the line holding @p a; nullptr on miss. Updates LRU. */
    CacheLine *lookup(Addr a);

    /**
     * Record @p n further hits on the resident line holding @p a,
     * exactly as @p n hitting lookup()s would (spin elision).
     */
    void creditHits(Addr a, std::uint64_t n);

    /** Find without disturbing replacement state. */
    const CacheLine *peek(Addr a) const;

    /** State of the block holding @p a (INVALID on miss); no LRU touch. */
    LineState
    stateOf(Addr a) const
    {
        const CacheLine *l = peek(a);
        return l == nullptr ? LineState::INVALID : l->state;
    }

    /**
     * Allocate a line for the block containing @p a, evicting the LRU
     * way if the set is full. The allocated line is returned in INVALID
     * state; the caller fills state and data.
     * @param victim Receives the evicted line, if any.
     */
    CacheLine *allocate(Addr a, Victim *victim);

    /** Drop the line holding @p a, if present. */
    void invalidate(Addr a);

    /** Total lines currently valid. */
    unsigned validLines() const;

    /** @name Load-linked reservation (one per cache). @{ */
    bool reservationValid() const { return _resv_valid; }
    Addr reservationAddr() const { return _resv_addr; }
    /** Tick the reservation was set at (faults.resv_max_age aging). */
    Tick reservationTick() const { return _resv_tick; }

    void
    setReservation(Addr a, Tick now = 0)
    {
        _resv_valid = true;
        _resv_addr = blockBase(a);
        _resv_tick = now;
    }

    void clearReservation() { _resv_valid = false; }

    /** Clear the reservation if it covers the block containing @p a. */
    void
    clearReservationIfCovers(Addr a)
    {
        if (_resv_valid && _resv_addr == blockBase(a))
            _resv_valid = false;
    }
    /** @} */

    CacheStats &stats() { return _stats; }
    const CacheStats &stats() const { return _stats; }

    /** All line slots (sets x ways), for inspection and checking. */
    const std::vector<CacheLine> &lines() const { return _lines; }

  private:
    unsigned setIndex(Addr a) const;

    unsigned _sets;
    unsigned _ways;
    std::vector<CacheLine> _lines; ///< sets * ways, set-major
    std::uint64_t _stamp = 0;

    bool _resv_valid = false;
    Addr _resv_addr = 0;
    Tick _resv_tick = 0;

    CacheStats _stats;
};

} // namespace dsm

#endif // DSM_CACHE_CACHE_HH
