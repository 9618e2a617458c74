#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params), snapName_("cache/" + params.name)
{
    if (params_.assoc == 0 || params_.assoc > 254)
        fatal("%s: associativity %u unsupported", params_.name.c_str(),
              params_.assoc);
    if (params_.numCores == 0)
        fatal("%s: needs at least one owning core", params_.name.c_str());
    const std::size_t blocks = params_.sizeBytes / kBlockBytes;
    if (blocks == 0 || blocks % params_.assoc != 0)
        fatal("%s: size %zu not divisible into %u-way sets",
              params_.name.c_str(), params_.sizeBytes, params_.assoc);
    const std::size_t num_sets = blocks / params_.assoc;
    if ((num_sets & (num_sets - 1)) != 0)
        fatal("%s: number of sets %zu must be a power of two",
              params_.name.c_str(), num_sets);

    lines_.resize(blocks);
    sets_.resize(num_sets);
}

std::size_t
SetAssocCache::setIndex(BlockAddr block) const
{
    return static_cast<std::size_t>(block & (sets_.size() - 1));
}

int
SetAssocCache::findWay(std::size_t base, BlockAddr block) const
{
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = lines_[base + w];
        if ((l.flags & kValid) != 0 && l.tag == block)
            return static_cast<int>(w);
    }
    return -1;
}

void
SetAssocCache::unlink(SetLinks &set, std::size_t base, std::uint8_t way)
{
    Line &l = lines_[base + way];
    if (l.prev != kNoWay)
        lines_[base + l.prev].next = l.next;
    else
        set.lru = l.next;
    if (l.next != kNoWay)
        lines_[base + l.next].prev = l.prev;
    else
        set.mru = l.prev;
}

void
SetAssocCache::appendMru(SetLinks &set, std::size_t base, std::uint8_t way)
{
    Line &l = lines_[base + way];
    l.prev = set.mru;
    l.next = kNoWay;
    if (set.mru != kNoWay)
        lines_[base + set.mru].next = way;
    else
        set.lru = way;
    set.mru = way;
}

void
SetAssocCache::linkAtDepth(SetLinks &set, std::size_t base,
                           std::uint8_t way, unsigned depth,
                           unsigned chainLen)
{
    if (depth >= chainLen) {
        appendMru(set, base, way);
        return;
    }
    Line &l = lines_[base + way];
    if (depth == 0) {
        l.prev = kNoWay;
        l.next = set.lru;
        lines_[base + set.lru].prev = way;
        set.lru = way;
        return;
    }
    // Splice in after the node currently at depth-1: the new line then
    // has `depth` less-recent predecessors, matching a vector insert at
    // index `depth` in the old recency-stack representation.
    std::uint8_t before = set.lru;
    for (unsigned i = 1; i < depth; ++i)
        before = lines_[base + before].next;
    l.prev = before;
    l.next = lines_[base + before].next;
    lines_[base + before].next = way;
    lines_[base + l.next].prev = way;
}

CacheAccessResult
SetAssocCache::access(BlockAddr block, bool isWrite)
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return {};

    Line &l = lines_[base + static_cast<std::size_t>(w)];
    CacheAccessResult result;
    result.hit = true;
    result.hitPrefetched = (l.flags & kPref) != 0;
    result.owner = l.owner;
    l.flags &= static_cast<std::uint8_t>(~kPref);
    if (isWrite)
        l.flags |= kDirty;
    SetLinks &set = sets_[s];
    if (set.mru != w) {
        unlink(set, base, static_cast<std::uint8_t>(w));
        appendMru(set, base, static_cast<std::uint8_t>(w));
    }
    return result;
}

bool
SetAssocCache::probe(BlockAddr block) const
{
    return findWay(setIndex(block) * params_.assoc, block) >= 0;
}

CacheVictim
SetAssocCache::insert(BlockAddr block, bool prefBit, InsertPos pos,
                      bool dirty, CoreId owner)
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    if (findWay(base, block) >= 0)
        panic("%s: inserting block already present", params_.name.c_str());

    SetLinks &set = sets_[s];
    CacheVictim victim;
    std::uint8_t way;
    if (set.used == params_.assoc) {
        // Set full: evict the LRU way and reuse it.
        way = set.lru;
        unlink(set, base, way);
        const Line &v = lines_[base + way];
        victim.valid = true;
        victim.block = v.tag;
        victim.prefBit = (v.flags & kPref) != 0;
        victim.dirty = (v.flags & kDirty) != 0;
        victim.owner = v.owner;
    } else {
        way = 0;
        while ((lines_[base + way].flags & kValid) != 0)
            ++way;
        ++set.used;
    }

    Line &l = lines_[base + way];
    l.tag = block;
    l.flags = static_cast<std::uint8_t>(
        kValid | (prefBit ? kPref : 0) | (dirty ? kDirty : 0));
    l.owner = owner;

    const unsigned chain_len = set.used - 1u;
    const unsigned depth =
        std::min(insertStackIndex(pos, params_.assoc), chain_len);
    linkAtDepth(set, base, way, depth, chain_len);
    return victim;
}

CoreId
SetAssocCache::ownerOf(BlockAddr block) const
{
    const std::size_t base = setIndex(block) * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        panic("%s: ownerOf() for absent block", params_.name.c_str());
    return lines_[base + static_cast<std::size_t>(w)].owner;
}

bool
SetAssocCache::markDirty(BlockAddr block)
{
    const std::size_t base = setIndex(block) * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return false;
    lines_[base + static_cast<std::size_t>(w)].flags |= kDirty;
    return true;
}

CacheVictim
SetAssocCache::invalidate(BlockAddr block)
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return {};

    Line &l = lines_[base + static_cast<std::size_t>(w)];
    CacheVictim victim;
    victim.valid = true;
    victim.block = l.tag;
    victim.prefBit = (l.flags & kPref) != 0;
    victim.dirty = (l.flags & kDirty) != 0;
    victim.owner = l.owner;

    SetLinks &set = sets_[s];
    unlink(set, base, static_cast<std::uint8_t>(w));
    l = Line{};
    --set.used;
    return victim;
}

int
SetAssocCache::stackDepth(BlockAddr block) const
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return -1;
    int depth = 0;
    for (std::uint8_t cur = sets_[s].lru; cur != kNoWay;
         cur = lines_[base + cur].next) {
        if (cur == w)
            return depth;
        ++depth;
    }
    panic("%s: valid way missing from recency stack", params_.name.c_str());
}

std::size_t
SetAssocCache::occupancy() const
{
    std::size_t n = 0;
    for (const auto &set : sets_)
        n += set.used;
    return n;
}

void
SetAssocCache::audit() const
{
    for (std::size_t s = 0; s < sets_.size(); ++s) {
        const SetLinks &set = sets_[s];
        const std::size_t base = s * params_.assoc;
        FDP_ASSERT(set.used <= params_.assoc,
                   "%s: set %zu uses %u of %u ways", auditName(), s,
                   set.used, params_.assoc);

        // Walk the recency chain LRU -> MRU, capped one past the
        // associativity so a cyclic chain still terminates and reports
        // a length mismatch instead of hanging the audit.
        std::vector<std::uint8_t> order;
        std::uint8_t cur = set.lru;
        while (cur != kNoWay && order.size() <= params_.assoc) {
            FDP_ASSERT(cur < params_.assoc,
                       "%s: set %zu stack names way %u of %u", auditName(),
                       s, cur, params_.assoc);
            order.push_back(cur);
            cur = lines_[base + cur].next;
        }
        FDP_ASSERT(order.size() == set.used,
                   "%s: set %zu recency stack holds %zu entries for %u "
                   "valid ways",
                   auditName(), s, order.size(), set.used);

        // The chain must be a permutation of the valid way indices with
        // consistent back links and endpoints.
        std::vector<bool> on_stack(params_.assoc, false);
        std::uint8_t expect_prev = kNoWay;
        for (const std::uint8_t w : order) {
            FDP_ASSERT(!on_stack[w],
                       "%s: set %zu stack lists way %u twice", auditName(),
                       s, w);
            on_stack[w] = true;
            const Line &l = lines_[base + w];
            FDP_ASSERT((l.flags & kValid) != 0,
                       "%s: set %zu stack lists invalid way %u",
                       auditName(), s, w);
            FDP_ASSERT(l.prev == expect_prev,
                       "%s: set %zu way %u back link names way %u",
                       auditName(), s, w, l.prev);
            expect_prev = w;
        }
        FDP_ASSERT(set.mru == expect_prev,
                   "%s: set %zu MRU endpoint names way %u", auditName(), s,
                   set.mru);

        unsigned valid_ways = 0;
        for (std::size_t w = 0; w < params_.assoc; ++w) {
            const Line &l = lines_[base + w];
            if ((l.flags & kValid) == 0) {
                FDP_ASSERT(!on_stack[w],
                           "%s: set %zu invalid way %zu is on the stack",
                           auditName(), s, w);
                continue;
            }
            ++valid_ways;
            FDP_ASSERT(on_stack[w],
                       "%s: set %zu valid way %zu missing from the stack",
                       auditName(), s, w);
            FDP_ASSERT(l.owner.index() < params_.numCores,
                       "%s: set %zu way %zu owned by core %u of %u",
                       auditName(), s, w, l.owner.index(),
                       params_.numCores);
            for (std::size_t o = 0; o < w; ++o) {
                const Line &other = lines_[base + o];
                FDP_ASSERT((other.flags & kValid) == 0 ||
                               other.tag != l.tag,
                           "%s: set %zu holds block %llu in ways %zu and "
                           "%zu",
                           auditName(), s,
                           static_cast<unsigned long long>(l.tag), o, w);
            }
            FDP_ASSERT(setIndex(l.tag) == s,
                       "%s: block %llu stored in set %zu but maps to set "
                       "%zu",
                       auditName(),
                       static_cast<unsigned long long>(l.tag), s,
                       setIndex(l.tag));
        }
        FDP_ASSERT(valid_ways == set.used,
                   "%s: set %zu has %u valid ways but used=%u",
                   auditName(), s, valid_ways, set.used);
    }
}

void
SetAssocCache::saveState(SnapWriter &w) const
{
    w.beginSection(snapName());
    w.putU32(static_cast<std::uint32_t>(sets_.size()));
    w.putU32(params_.assoc);
    for (const Line &l : lines_) {
        w.putU64(l.tag);
        w.putU8(l.flags);
        w.putU8(l.prev);
        w.putU8(l.next);
        w.putU8(static_cast<std::uint8_t>(l.owner.index()));
    }
    for (const SetLinks &set : sets_) {
        w.putU8(set.lru);
        w.putU8(set.mru);
        w.putU8(set.used);
    }
    w.endSection();
}

void
SetAssocCache::loadState(SnapReader &r)
{
    r.openSection(snapName());
    const std::uint32_t num_sets = r.getU32();
    const std::uint32_t assoc = r.getU32();
    if (num_sets != sets_.size() || assoc != params_.assoc)
        fatal("snapshot: %s geometry is %zu sets x %u ways, snapshot has "
              "%u x %u",
              params_.name.c_str(), sets_.size(), params_.assoc, num_sets,
              assoc);
    for (Line &l : lines_) {
        l.tag = r.getU64();
        l.flags = r.getU8();
        l.prev = r.getU8();
        l.next = r.getU8();
        l.owner = CoreId{r.getU8()};
    }
    for (SetLinks &set : sets_) {
        set.lru = r.getU8();
        set.mru = r.getU8();
        set.used = r.getU8();
    }
    r.closeSection();
}

void
SetAssocCache::clear()
{
    for (Line &l : lines_)
        l = Line{};
    for (SetLinks &set : sets_)
        set = SetLinks{};
}

} // namespace fdp
