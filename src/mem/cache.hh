/**
 * @file
 * Set-associative cache array with optional asymmetric fast way.
 *
 * The Cache class models the tag/state arrays of one cache level: LRU
 * replacement, write-back dirty tracking, and MESI state per line. It is
 * purely a state container — latency and coherence policy live in
 * MemHierarchy. When configured asymmetric (the AdvHet DL1 of Section
 * IV-C1), way 0 is the FastCache: hits there are reported separately,
 * lines found in the slow ways are promoted (swapped) into way 0, and
 * fills always land in way 0 so the MRU line of each set stays fast.
 */

#ifndef HETSIM_MEM_CACHE_HH
#define HETSIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mem/types.hh"

namespace hetsim::mem
{

/** Static configuration of one cache array. */
struct CacheParams
{
    std::string name;
    uint32_t sizeBytes = 32 * 1024;
    uint32_t ways = 8;
    uint32_t lineBytes = kLineBytes;
    bool asymmetric = false; ///< Way 0 is a separately reported FastCache.
};

/** Result of a cache lookup. */
struct LookupResult
{
    bool hit = false;
    bool fastHit = false;       ///< Hit in way 0 of an asymmetric cache.
    CoherenceState state = CoherenceState::Invalid;
};

/** Description of a line displaced by a fill. */
struct Eviction
{
    bool valid = false;          ///< A line was displaced.
    Addr lineAddr = 0;
    bool dirty = false;
    CoherenceState state = CoherenceState::Invalid;
};

/** Where an address lives in a cache: its set and its tag. */
struct SetAndTag
{
    uint32_t set;
    Addr tag;
};

/**
 * Additively folded set indexing: tag = line / sets, set = (line %
 * sets + tag) % sets. Regions whose bases differ only in high bits
 * spread over all sets instead of aliasing into the same ones, as in
 * real shared caches. The fold is invertible for any set count, so
 * non-power-of-two shared caches (e.g. a 7-core L3) work too. With a
 * power-of-two set count, which covers every private cache, the same
 * fold is a shift and a mask.
 */
class SetFold
{
  public:
    explicit SetFold(uint32_t num_sets);

    SetAndTag
    locate(Addr addr) const
    {
        if (!pow2_)
            return locateByDivision(addr, numSets_);
        // (line % sets + tag) % sets == (line + tag) & mask: the low
        // bits of `line` are line % sets, and masking the sum drops
        // the multiples of sets.
        const uint64_t line = lineNumber(addr);
        const uint64_t tag = line >> shift_;
        return {static_cast<uint32_t>((line + tag) & mask_), tag};
    }

    /** Line address of the line at (set, tag): inverts locate(). */
    Addr
    rebuild(uint32_t set, Addr tag) const
    {
        if (!pow2_)
            return rebuildByDivision(set, tag, numSets_);
        const uint64_t low = (set - tag) & mask_;
        return ((tag << shift_) | low) << kLineShift;
    }

    /** The fold by division, for any set count: the definition the
     *  power-of-two path must match. @{ */
    static SetAndTag locateByDivision(Addr addr, uint32_t num_sets);
    static Addr rebuildByDivision(uint32_t set, Addr tag,
                                  uint32_t num_sets);
    /** @} */

  private:
    uint32_t numSets_;
    bool pow2_;
    uint32_t shift_ = 0; ///< log2(numSets_) (power-of-two only).
    uint64_t mask_ = 0;  ///< numSets_ - 1 (power-of-two only).
};

/** Tag/state array of one cache level. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up an address and update LRU/asymmetric promotion state on a
     * hit. Does not allocate.
     */
    LookupResult access(Addr addr);

    /** Look up without disturbing replacement state. */
    LookupResult probe(Addr addr) const;

    /** Event horizon: always kNoEvent — the cache is a passive array
     *  that only changes state inside a requester's access()/fill()
     *  walk, so requester-side horizons bound chip progress. Present
     *  for API uniformity with the active components. */
    Cycle nextEventCycle(Cycle) const { return kNoEvent; }

    /**
     * Allocate a line in the given state, returning any displaced line.
     * In an asymmetric cache the fill lands in the fast way and the
     * previous fast occupant is demoted into the slow victim slot.
     */
    Eviction fill(Addr addr, CoherenceState state);

    /** Set the coherence state of a resident line (hit required). */
    void setState(Addr addr, CoherenceState state);

    /** Mark a resident line dirty (on a store hit). */
    void markDirty(Addr addr);

    /**
     * Invalidate a line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /**
     * Downgrade a line to Shared if present (directory recall on a
     * remote read), clearing its dirty bit — the data is pushed to the
     * next level by the caller.
     * @return true if the line was present and dirty.
     */
    bool downgradeToShared(Addr addr);

    /** Whether the line is resident (any valid state). */
    bool contains(Addr addr) const;

    /** Coherence state of a line (Invalid if absent). */
    CoherenceState stateOf(Addr addr) const;

    /** Number of valid lines currently resident. */
    uint32_t residentLines() const;

    /** Enumerate resident line addresses (testing/debug). */
    std::vector<Addr> residentAddrs() const;

    const CacheParams &params() const { return params_; }
    uint32_t numSets() const { return numSets_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Serialize the tag/state/LRU arrays and stats into a named
     *  checkpoint section; restore requires identical geometry. */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

  private:
    struct Line
    {
        Addr tag = 0;
        CoherenceState state = CoherenceState::Invalid;
        bool dirty = false;
        uint64_t lruStamp = 0;

        bool valid() const { return state != CoherenceState::Invalid; }
    };

    /** First way of a set (the row is `ways` lines). @{ */
    Line *
    setBase(uint32_t set)
    {
        return &lines_[static_cast<size_t>(set) * params_.ways];
    }
    const Line *
    setBase(uint32_t set) const
    {
        return &lines_[static_cast<size_t>(set) * params_.ways];
    }
    /** @} */
    Line *findLine(SetAndTag at);
    const Line *findLine(SetAndTag at) const;
    Line *findLine(Addr addr) { return findLine(fold_.locate(addr)); }
    const Line *
    findLine(Addr addr) const
    {
        return findLine(fold_.locate(addr));
    }

    CacheParams params_;
    uint32_t numSets_;
    SetFold fold_;
    uint64_t stampCounter_ = 0;
    std::vector<Line> lines_; ///< numSets_ x ways, row-major.
    StatGroup stats_;

    /** Hot-path counter handles (stable StatGroup references). */
    struct CacheCounters
    {
        explicit CacheCounters(StatGroup &sg);
        Counter &accesses;
        Counter &misses;
        Counter &hits;
        Counter &fastHits;
        Counter &slowHits;
        Counter &promotions;
        Counter &fills;
        Counter &evictions;
        Counter &dirtyEvictions;
        Counter &demotions;
        Counter &invalidations;
        Counter &downgrades;
    };
    CacheCounters ctrs_;
};

} // namespace hetsim::mem

#endif // HETSIM_MEM_CACHE_HH
