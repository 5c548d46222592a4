#include <gtest/gtest.h>

#include <list>
#include <vector>

#include "support/error.h"
#include "support/rng.h"
#include "uarch/cache.h"

namespace bitspec
{
namespace
{

TEST(Cache, HitAfterMiss)
{
    Cache c(8 * 1024, 4, 32);
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x101f, false)); // Same 32B line.
    EXPECT_FALSE(c.access(0x1020, false)); // Next line.
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache c(8 * 1024, 4, 32);
    // 4-way, 64 sets: addresses 2 KiB apart map to the same set.
    for (int w = 0; w < 4; ++w)
        EXPECT_FALSE(c.access(0x1000 + w * 2048, false));
    for (int w = 0; w < 4; ++w)
        EXPECT_TRUE(c.access(0x1000 + w * 2048, false));
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(8 * 1024, 4, 32);
    for (int w = 0; w < 4; ++w)
        c.access(0x1000 + w * 2048, false);
    // Touch way 0 again, then insert a 5th conflicting line.
    c.access(0x1000, false);
    c.access(0x1000 + 4 * 2048, false);
    // Way 0 (recently used) must survive; way 1 was evicted.
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_FALSE(c.access(0x1000 + 1 * 2048, false));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c(8 * 1024, 4, 32);
    c.access(0x1000, true); // Dirty.
    for (int w = 1; w <= 4; ++w)
        c.access(0x1000 + w * 2048, false); // Evicts the dirty line.
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Hierarchy, LatenciesEscalate)
{
    MemoryHierarchy m;
    // Cold: L1 miss -> L2 miss -> DRAM.
    EXPECT_EQ(m.data(0x2000, false),
              MemoryHierarchy::kL2HitCycles +
                  MemoryHierarchy::kDramCycles);
    // Warm: L1 hit.
    EXPECT_EQ(m.data(0x2000, false), 0u);
    EXPECT_EQ(m.dram().reads, 1u);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    MemoryHierarchy m;
    m.data(0x3000, false);
    // Blow the line out of 8 KiB L1 (touch 8 conflicting lines)...
    for (int w = 1; w <= 8; ++w)
        m.data(0x3000 + w * 2048, false);
    // ...but 256 KiB L2 still holds it: only the L2 latency is paid.
    EXPECT_EQ(m.data(0x3000, false), MemoryHierarchy::kL2HitCycles);
}

TEST(Hierarchy, SeparateInstructionAndDataPaths)
{
    MemoryHierarchy m;
    m.fetch(0x5000);
    EXPECT_EQ(m.l1i().misses, 1u);
    EXPECT_EQ(m.l1d().accesses, 0u);
    // Data access to the same address misses L1D (separate cache)
    // but hits in the shared L2.
    EXPECT_EQ(m.data(0x5000, false), MemoryHierarchy::kL2HitCycles);
}

TEST(Cache, PeekIsAPureProbe)
{
    Cache c(8 * 1024, 4, 32);
    EXPECT_FALSE(c.peek(0x1000));
    EXPECT_EQ(c.stats().accesses, 0u); // No stats from probing.
    c.access(0x1000, false);
    EXPECT_TRUE(c.peek(0x1000));
    EXPECT_TRUE(c.peek(0x101f)); // Same line.
    EXPECT_FALSE(c.peek(0x1020));
    EXPECT_EQ(c.stats().accesses, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, CommitHitsMatchesAccessLoop)
{
    // commitHits(addr, n) must be statistically and LRU-wise
    // indistinguishable from n access() hits on the same line.
    Cache bulk(8 * 1024, 4, 32);
    Cache loop(8 * 1024, 4, 32);
    bulk.access(0x1000, false);
    loop.access(0x1000, false);

    bulk.commitHits(0x1000, 7);
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(loop.access(0x1000, false));

    EXPECT_EQ(bulk.stats().accesses, loop.stats().accesses);
    EXPECT_EQ(bulk.stats().misses, loop.stats().misses);
    EXPECT_EQ(bulk.stats().writebacks, loop.stats().writebacks);

    // The commit must also freshen the line's LRU stamp: make an
    // older conflicting line the victim. 0x1800 enters after 0x1000,
    // but the bulk hits leave 0x1000 more recently used, so filling
    // the set evicts 0x1800 — unless commitHits forgot the clock.
    bulk.access(0x1800, false);
    loop.access(0x1800, false);
    bulk.commitHits(0x1000, 3);
    for (int i = 0; i < 3; ++i)
        loop.access(0x1000, false);
    for (uint32_t line : {0x2000u, 0x2800u, 0x3000u}) {
        bulk.access(line, false);
        loop.access(line, false);
    }
    EXPECT_TRUE(bulk.peek(0x1000));
    EXPECT_FALSE(bulk.peek(0x1800));
    EXPECT_EQ(bulk.peek(0x1000), loop.peek(0x1000));
    EXPECT_EQ(bulk.peek(0x1800), loop.peek(0x1800));
}

TEST(Cache, CommitHitsPanicsWhenNotResident)
{
    Cache c(8 * 1024, 4, 32);
    EXPECT_THROW(c.commitHits(0x1000, 1), PanicError);
}

TEST(Hierarchy, FetchRangeCommitMatchesFetchLoop)
{
    // A 9-instruction straight-line run crossing a 32 B line boundary:
    // the bulk commit must leave identical stats to per-PC fetches.
    const uint32_t first = 0x400010, last = first + 8 * 4;
    MemoryHierarchy bulk, loop;
    EXPECT_FALSE(bulk.fetchRangeResident(first, last));
    for (uint32_t pc = first; pc <= last; pc += 4) {
        bulk.fetch(pc);
        loop.fetch(pc);
    }
    ASSERT_TRUE(bulk.fetchRangeResident(first, last));

    bulk.fetchRangeCommit(first, last);
    for (uint32_t pc = first; pc <= last; pc += 4)
        loop.fetch(pc);

    EXPECT_EQ(bulk.l1i().accesses, loop.l1i().accesses);
    EXPECT_EQ(bulk.l1i().misses, loop.l1i().misses);
    EXPECT_EQ(bulk.l2().accesses, loop.l2().accesses);
    EXPECT_EQ(bulk.dram().reads, loop.dram().reads);
}

TEST(Hierarchy, FetchRangeResidentNeedsEveryLine)
{
    MemoryHierarchy m;
    m.fetch(0x400000); // First line only.
    EXPECT_TRUE(m.fetchRangeResident(0x400000, 0x40001c));
    // Range extends into the next, unfetched line.
    EXPECT_FALSE(m.fetchRangeResident(0x400000, 0x400020));
}

TEST(Cache, RejectsNonPowerOfTwoGeometry)
{
    // Lines and sets are indexed by shift and mask.
    EXPECT_THROW(Cache(24 * 4 * 32, 4, 32), PanicError); // 24 sets.
    EXPECT_THROW(Cache(64 * 4 * 48, 4, 48), PanicError); // 48 B lines.
    EXPECT_THROW(Cache(1000, 4, 32), PanicError);        // Uneven.
    // The associativity is free: 3 ways of 64 sets.
    Cache three(3 * 64 * 32, 3, 32);
    EXPECT_FALSE(three.access(0x1000, false));
    EXPECT_TRUE(three.access(0x1000, false));
}

/** Reference write-back LRU cache by division and modulo: per set, a
 *  recency list of (tag, dirty), most recent first. */
class RefCache
{
  public:
    RefCache(uint32_t size_bytes, uint32_t assoc, uint32_t line_bytes)
        : assoc_(assoc), lineBytes_(line_bytes),
          sets_(size_bytes / (assoc * line_bytes))
    {
        lru_.resize(sets_);
    }

    bool
    access(uint32_t addr, bool is_write)
    {
        ++stats.accesses;
        const uint32_t line = addr / lineBytes_;
        const uint32_t tag = line / sets_;
        std::list<Way> &set = lru_[line % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == tag) {
                Way hit{tag, it->dirty || is_write};
                set.erase(it);
                set.push_front(hit);
                return true;
            }
        }
        ++stats.misses;
        ++fills;
        if (set.size() == assoc_) {
            if (set.back().dirty)
                ++stats.writebacks;
            set.pop_back();
        }
        set.push_front(Way{tag, is_write});
        return false;
    }

    CacheStats stats;
    uint64_t fills = 0;

  private:
    struct Way
    {
        uint32_t tag;
        bool dirty;
    };
    uint32_t assoc_, lineBytes_, sets_;
    std::vector<std::list<Way>> lru_;
};

TEST(Cache, MatchesDivModLruReferenceOnRandomStream)
{
    struct Geometry
    {
        uint32_t size, assoc, line;
    };
    for (Geometry g : {Geometry{8 * 1024, 4, 32},
                       Geometry{256 * 1024, 8, 32},
                       Geometry{3 * 16 * 64, 3, 64},
                       Geometry{512, 1, 16}}) {
        SCOPED_TRACE(std::to_string(g.size) + "/" +
                     std::to_string(g.assoc) + "/" +
                     std::to_string(g.line));
        Cache cache(g.size, g.assoc, g.line);
        RefCache ref(g.size, g.assoc, g.line);
        Rng rng(0xcac4e + g.size + g.assoc);
        // A mix of streaming runs, reuse of recent lines, and random
        // addresses over a range 8x the cache: hits on the same and
        // on other lines, conflict misses and dirty evictions.
        uint32_t addr = 0;
        std::vector<uint32_t> recent(16, 0);
        for (int i = 0; i < 200000; ++i) {
            const uint64_t pick = rng.nextBelow(10);
            if (pick < 4)
                addr += static_cast<uint32_t>(rng.nextBelow(8));
            else if (pick < 7)
                addr = recent[rng.nextBelow(recent.size())] +
                       static_cast<uint32_t>(rng.nextBelow(g.line));
            else
                addr = static_cast<uint32_t>(rng.nextBelow(8 * g.size));
            recent[i % recent.size()] = addr;
            const bool is_write = rng.nextBelow(3) == 0;
            ASSERT_EQ(cache.access(addr, is_write),
                      ref.access(addr, is_write))
                << "access " << i << " at 0x" << std::hex << addr;
        }
        EXPECT_EQ(cache.stats().accesses, ref.stats.accesses);
        EXPECT_EQ(cache.stats().misses, ref.stats.misses);
        EXPECT_EQ(cache.stats().writebacks, ref.stats.writebacks);
        EXPECT_EQ(cache.fillGen(), ref.fills);
        EXPECT_GT(ref.stats.writebacks, 0u);
        EXPECT_GT(ref.stats.accesses - ref.stats.misses,
                  ref.stats.misses);
    }
}

} // namespace
} // namespace bitspec
