#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::mem
{

Cache::CacheCounters::CacheCounters(StatGroup &sg)
    : accesses(sg.counter("accesses")),
      misses(sg.counter("misses")),
      hits(sg.counter("hits")),
      fastHits(sg.counter("fast_hits")),
      slowHits(sg.counter("slow_hits")),
      promotions(sg.counter("promotions")),
      fills(sg.counter("fills")),
      evictions(sg.counter("evictions")),
      dirtyEvictions(sg.counter("dirty_evictions")),
      demotions(sg.counter("demotions")),
      invalidations(sg.counter("invalidations")),
      downgrades(sg.counter("downgrades"))
{
}

SetFold::SetFold(uint32_t num_sets)
    : numSets_(num_sets), pow2_((num_sets & (num_sets - 1)) == 0)
{
    hetsim_assert(num_sets >= 1, "cache needs at least one set");
    if (pow2_) {
        shift_ = static_cast<uint32_t>(std::countr_zero(num_sets));
        mask_ = num_sets - 1;
    }
}

SetAndTag
SetFold::locateByDivision(Addr addr, uint32_t num_sets)
{
    const uint64_t line = lineNumber(addr);
    const uint64_t low = line % num_sets;
    const uint64_t tag = line / num_sets;
    return {static_cast<uint32_t>((low + tag) % num_sets), tag};
}

Addr
SetFold::rebuildByDivision(uint32_t set, Addr tag, uint32_t num_sets)
{
    // Invert the additive fold.
    const uint64_t t = tag % num_sets;
    const uint32_t low = static_cast<uint32_t>(
        (set + num_sets - t) % num_sets);
    return ((tag * num_sets) + low) << kLineShift;
}

namespace
{

uint32_t
setsOf(const CacheParams &p)
{
    hetsim_assert(p.lineBytes > 0 && (p.lineBytes & (p.lineBytes - 1)) == 0,
                  "line size must be a power of two");
    hetsim_assert(p.ways > 0, "cache needs at least one way");
    hetsim_assert(p.sizeBytes % (p.ways * p.lineBytes) == 0,
                  "size not divisible into sets");
    const uint32_t sets = p.sizeBytes / (p.ways * p.lineBytes);
    hetsim_assert(sets >= 1, "cache needs at least one set");
    return sets;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params), numSets_(setsOf(params)), fold_(numSets_),
      stats_(params.name), ctrs_(stats_)
{
    lines_.resize(static_cast<size_t>(numSets_) * params_.ways);
}

Cache::Line *
Cache::findLine(SetAndTag at)
{
    Line *base = setBase(at.set);
    for (uint32_t w = 0; w < params_.ways; ++w) {
        if (base[w].valid() && base[w].tag == at.tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(SetAndTag at) const
{
    return const_cast<Cache *>(this)->findLine(at);
}

LookupResult
Cache::access(Addr addr)
{
    ++ctrs_.accesses;
    const SetAndTag at = fold_.locate(addr);
    Line *base = setBase(at.set);
    Line *line = findLine(at);
    if (!line) {
        ++ctrs_.misses;
        return {};
    }

    ++ctrs_.hits;
    LookupResult res;
    res.hit = true;
    res.state = line->state;
    res.fastHit = params_.asymmetric && line == &base[0];
    if (params_.asymmetric) {
        if (res.fastHit) {
            ++ctrs_.fastHits;
        } else {
            // Promote the MRU line into the fast way by swapping the
            // hit line with the current way-0 occupant.
            ++ctrs_.slowHits;
            ++ctrs_.promotions;
            std::swap(*line, base[0]);
            line = &base[0];
        }
    }
    line->lruStamp = ++stampCounter_;
    return res;
}

LookupResult
Cache::probe(Addr addr) const
{
    const SetAndTag at = fold_.locate(addr);
    const Line *base = setBase(at.set);
    const Line *line = findLine(at);
    if (!line)
        return {};
    return {true, params_.asymmetric && line == &base[0], line->state};
}

Eviction
Cache::fill(Addr addr, CoherenceState state)
{
    hetsim_assert(state != CoherenceState::Invalid,
                  "cannot fill an invalid line");
    const SetAndTag at = fold_.locate(addr);
    hetsim_assert(findLine(at) == nullptr, "double fill of %llx",
                  static_cast<unsigned long long>(addr));
    ++ctrs_.fills;

    Line *base = setBase(at.set);

    // Pick the victim: an invalid way if any, else the LRU way among
    // the replacement candidates (the slow ways for asymmetric caches;
    // way 0 is never the victim there because the demoted fast line
    // takes the victim's slot).
    const uint32_t first = params_.asymmetric && params_.ways > 1 ? 1 : 0;
    Line *victim = nullptr;
    for (uint32_t w = first; w < params_.ways; ++w) {
        if (!base[w].valid()) {
            victim = &base[w];
            break;
        }
    }
    if (!victim) {
        victim = &base[first];
        for (uint32_t w = first + 1; w < params_.ways; ++w) {
            if (base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
    }

    Eviction ev;
    if (victim->valid()) {
        ev.valid = true;
        ev.lineAddr = fold_.rebuild(at.set, victim->tag);
        ev.dirty = victim->dirty;
        ev.state = victim->state;
        ++ctrs_.evictions;
        if (victim->dirty)
            ++ctrs_.dirtyEvictions;
    }

    Line incoming;
    incoming.tag = at.tag;
    incoming.state = state;
    incoming.dirty = false;
    incoming.lruStamp = ++stampCounter_;

    if (params_.asymmetric && params_.ways > 1) {
        // New line becomes the fast (MRU) line; the old fast line is
        // demoted into the victim slot.
        *victim = base[0];
        base[0] = incoming;
        if (victim != &base[0] && victim->valid())
            ++ctrs_.demotions;
    } else {
        *victim = incoming;
    }
    return ev;
}

void
Cache::setState(Addr addr, CoherenceState state)
{
    Line *line = findLine(addr);
    hetsim_assert(line, "setState on absent line %llx",
                  static_cast<unsigned long long>(addr));
    if (state == CoherenceState::Invalid) {
        line->state = state;
        line->dirty = false;
    } else {
        line->state = state;
    }
}

void
Cache::markDirty(Addr addr)
{
    Line *line = findLine(addr);
    hetsim_assert(line, "markDirty on absent line %llx",
                  static_cast<unsigned long long>(addr));
    line->dirty = true;
}

bool
Cache::invalidate(Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    ++ctrs_.invalidations;
    const bool was_dirty = line->dirty;
    line->state = CoherenceState::Invalid;
    line->dirty = false;
    return was_dirty;
}

bool
Cache::downgradeToShared(Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    ++ctrs_.downgrades;
    const bool was_dirty = line->dirty;
    line->state = CoherenceState::Shared;
    line->dirty = false;
    return was_dirty;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

CoherenceState
Cache::stateOf(Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->state : CoherenceState::Invalid;
}

uint32_t
Cache::residentLines() const
{
    uint32_t n = 0;
    for (const Line &l : lines_)
        if (l.valid())
            ++n;
    return n;
}

std::vector<Addr>
Cache::residentAddrs() const
{
    std::vector<Addr> out;
    for (uint32_t set = 0; set < numSets_; ++set) {
        const Line *base = setBase(set);
        for (uint32_t w = 0; w < params_.ways; ++w)
            if (base[w].valid())
                out.push_back(fold_.rebuild(set, base[w].tag));
    }
    return out;
}

void
Cache::saveState(Serializer &ser) const
{
    ser.beginSection("cache");
    ser.putString(params_.name);
    ser.putU32(numSets_);
    ser.putU32(params_.ways);
    ser.putU64(stampCounter_);
    for (const Line &l : lines_) {
        ser.putU64(l.tag);
        ser.putU8(static_cast<uint8_t>(l.state));
        ser.putBool(l.dirty);
        ser.putU64(l.lruStamp);
    }
    stats_.saveState(ser);
    ser.endSection();
}

void
Cache::restoreState(Deserializer &des)
{
    des.openSection("cache");
    if (des.getString() != params_.name || des.getU32() != numSets_ ||
        des.getU32() != params_.ways) {
        des.fail("cache geometry mismatch");
        return;
    }
    stampCounter_ = des.getU64();
    for (Line &l : lines_) {
        l.tag = des.getU64();
        const uint8_t st = des.getU8();
        if (st > static_cast<uint8_t>(CoherenceState::Modified)) {
            des.fail("invalid coherence state");
            return;
        }
        l.state = static_cast<CoherenceState>(st);
        l.dirty = des.getBool();
        l.lruStamp = des.getU64();
    }
    stats_.restoreState(des);
    des.closeSection();
}

} // namespace hetsim::mem
