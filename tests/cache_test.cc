/**
 * @file
 * Tests for the L1 cache model: hit/miss timing, LRU replacement,
 * flushes, non-allocating probes and DAWG-style domain partitioning.
 */

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "uarch/cache.hh"

namespace
{

using namespace specsec::uarch;

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.sets = 4;
    c.ways = 2;
    c.lineSize = 64;
    c.hitLatency = 4;
    c.missLatency = 200;
    return c;
}

TEST(Cache, MissThenHit)
{
    Cache c(smallConfig());
    const CacheAccess first = c.access(0x1000);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.latency, 200u);
    const CacheAccess second = c.access(0x1000);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, 4u);
}

TEST(Cache, SameLineSharesEntry)
{
    Cache c(smallConfig());
    c.access(0x1000);
    EXPECT_TRUE(c.access(0x103f).hit); // same 64B line
    EXPECT_FALSE(c.access(0x1040).hit); // next line
}

TEST(Cache, SetIndexComputation)
{
    Cache c(smallConfig());
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(64), 1u);
    EXPECT_EQ(c.setIndex(64 * 4), 0u); // wraps at 4 sets
}

TEST(Cache, LruEviction)
{
    Cache c(smallConfig()); // 2 ways
    // Three lines in set 0: 0x0, 0x100, 0x200 (all set index 0).
    c.access(0x000);
    c.access(0x100);
    c.access(0x000); // touch: 0x100 becomes LRU
    const CacheAccess third = c.access(0x200);
    EXPECT_FALSE(third.hit);
    EXPECT_TRUE(third.evicted);
    EXPECT_EQ(third.evictedLineAddr, 0x100u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, NonAllocatingProbe)
{
    Cache c(smallConfig());
    const CacheAccess probe = c.access(0x1000, 0, false);
    EXPECT_FALSE(probe.hit);
    EXPECT_FALSE(c.contains(0x1000)); // no state change
}

TEST(Cache, FlushLine)
{
    Cache c(smallConfig());
    c.access(0x1000);
    EXPECT_TRUE(c.flushLine(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.flushLine(0x1000)); // already gone
}

TEST(Cache, FlushAll)
{
    Cache c(smallConfig());
    c.access(0x0);
    c.access(0x40);
    c.flushAll();
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, FlushAllRestoresLruParityWithFreshCache)
{
    // flushAll() also rewinds the LRU use counter, so a flushed
    // cache must make the same eviction decisions as a
    // freshly-constructed one, whatever ran before the flush.
    Cache flushed(smallConfig());
    // Age the counter well past anything the replay will reach.
    for (Addr a = 0; a < 64 * 64; a += 64)
        flushed.access(a);
    flushed.flushAll();

    Cache fresh(smallConfig());
    const Addr pattern[] = {0x000, 0x100, 0x000, 0x200,
                            0x100, 0x300, 0x200};
    for (const Addr a : pattern) {
        const CacheAccess f = flushed.access(a);
        const CacheAccess g = fresh.access(a);
        EXPECT_EQ(f.hit, g.hit) << "addr " << a;
        EXPECT_EQ(f.evicted, g.evicted) << "addr " << a;
        if (f.evicted) {
            EXPECT_EQ(f.evictedLineAddr, g.evictedLineAddr);
        }
    }
}

TEST(Cache, Stats)
{
    Cache c(smallConfig());
    c.access(0x0);
    c.access(0x0);
    c.access(0x40);
    c.flushLine(0x40);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().flushes, 1u);
    c.resetStats();
    EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Cache, InsertWithoutTiming)
{
    Cache c(smallConfig());
    c.insert(0x2000);
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, PartitionedDomainsDoNotShareHits)
{
    Cache c(smallConfig());
    c.setPartitioned(true);
    c.access(0x1000, /*domain=*/0);
    EXPECT_TRUE(c.contains(0x1000, 0));
    EXPECT_FALSE(c.contains(0x1000, 1)); // DAWG: invisible next door
    EXPECT_FALSE(c.access(0x1000, 1).hit);
}

TEST(Cache, UnpartitionedIgnoresDomain)
{
    Cache c(smallConfig());
    c.access(0x1000, 0);
    EXPECT_TRUE(c.contains(0x1000, 1));
}

TEST(Cache, DifferentSetsDoNotConflict)
{
    Cache c(smallConfig());
    for (Addr a = 0; a < 4 * 64; a += 64)
        c.access(a);
    for (Addr a = 0; a < 4 * 64; a += 64)
        EXPECT_TRUE(c.contains(a));
}

TEST(Cache, ConfigurableLatencies)
{
    CacheConfig cfg = smallConfig();
    cfg.hitLatency = 7;
    cfg.missLatency = 99;
    Cache c(cfg);
    EXPECT_EQ(c.access(0).latency, 99u);
    EXPECT_EQ(c.access(0).latency, 7u);
}

/**
 * The cache's documented behaviour, written the plain way: sets
 * indexed by (paddr / lineSize) % sets, tags by paddr / lineSize,
 * LRU by a use counter, the first invalid way filled before any
 * eviction.  The real Cache indexes with a shift and a mask.
 */
class ReferenceCache
{
  public:
    ReferenceCache(const CacheConfig &config, bool partitioned)
        : config_(config), partitioned_(partitioned),
          sets_(config.sets, std::vector<Line>(config.ways))
    {
    }

    CacheAccess
    access(Addr paddr, int domain, bool allocate)
    {
        CacheAccess r;
        ++useCounter_;
        if (Line *line = find(paddr, domain)) {
            line->lastUse = useCounter_;
            r.hit = true;
            r.latency = config_.hitLatency;
            ++stats.hits;
            return r;
        }
        r.latency = config_.missLatency;
        ++stats.misses;
        if (!allocate)
            return r;
        std::vector<Line> &set = setOf(paddr);
        Line *victim = nullptr;
        for (Line &line : set) {
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (!victim || line.lastUse < victim->lastUse)
                victim = &line;
        }
        if (victim->valid) {
            r.evicted = true;
            r.evictedLineAddr = victim->tag * config_.lineSize;
            ++stats.evictions;
        }
        *victim = Line{true, paddr / config_.lineSize, domain,
                       useCounter_};
        return r;
    }

    bool
    contains(Addr paddr, int domain)
    {
        return find(paddr, domain) != nullptr;
    }

    bool
    flushLine(Addr paddr)
    {
        bool flushed = false;
        for (Line &line : setOf(paddr)) {
            if (line.valid && line.tag == paddr / config_.lineSize) {
                line.valid = false;
                flushed = true;
                ++stats.flushes;
            }
        }
        return flushed;
    }

    CacheStats stats;

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        int domain = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Line> &
    setOf(Addr paddr)
    {
        return sets_[(paddr / config_.lineSize) % config_.sets];
    }

    Line *
    find(Addr paddr, int domain)
    {
        for (Line &line : setOf(paddr)) {
            if (line.valid && line.tag == paddr / config_.lineSize &&
                (!partitioned_ || line.domain == domain)) {
                return &line;
            }
        }
        return nullptr;
    }

    CacheConfig config_;
    bool partitioned_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t useCounter_ = 0;
};

TEST(Cache, IndexingMatchesDivisionReference)
{
    struct Geometry
    {
        std::size_t sets, ways;
    };
    for (const Geometry g : {Geometry{256, 4}, Geometry{64, 4},
                             Geometry{256, 1}}) {
        for (const bool partitioned : {false, true}) {
            CacheConfig config;
            config.sets = g.sets;
            config.ways = g.ways;
            config.lineSize = 64;
            Cache cache(config);
            cache.setPartitioned(partitioned);
            ReferenceCache ref(config, partitioned);
            // Twice the cache's capacity in distinct lines, so
            // hits, evictions and flush hits all occur; one address
            // in eight sits far above the modeled memory to
            // exercise high tag bits.
            const Addr span = 2 * g.sets * g.ways * config.lineSize;
            std::mt19937_64 rng(g.sets * 31 + g.ways + partitioned);
            for (int op = 0; op < 20000; ++op) {
                Addr paddr = rng() % span;
                if (rng() % 8 == 0)
                    paddr += Addr{1} << 40;
                const int domain = static_cast<int>(rng() % 2);
                const auto what = rng() % 5;
                SCOPED_TRACE(testing::Message()
                             << g.sets << "x" << g.ways
                             << (partitioned ? " partitioned" : "")
                             << " op " << op << " paddr " << paddr);
                if (what <= 1) {
                    const bool allocate = what == 0;
                    const CacheAccess got =
                        cache.access(paddr, domain, allocate);
                    const CacheAccess want =
                        ref.access(paddr, domain, allocate);
                    ASSERT_EQ(got.hit, want.hit);
                    ASSERT_EQ(got.latency, want.latency);
                    ASSERT_EQ(got.evicted, want.evicted);
                    ASSERT_EQ(got.evictedLineAddr,
                              want.evictedLineAddr);
                } else if (what == 2) {
                    cache.insert(paddr, domain);
                    ref.access(paddr, domain, true);
                } else if (what == 3) {
                    ASSERT_EQ(cache.flushLine(paddr),
                              ref.flushLine(paddr));
                } else {
                    ASSERT_EQ(cache.contains(paddr, domain),
                              ref.contains(paddr, domain));
                }
            }
            EXPECT_EQ(cache.stats().hits, ref.stats.hits);
            EXPECT_EQ(cache.stats().misses, ref.stats.misses);
            EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
            EXPECT_EQ(cache.stats().flushes, ref.stats.flushes);
            EXPECT_GT(cache.stats().hits, 0u);
            EXPECT_GT(cache.stats().evictions, 0u);
        }
    }
}

TEST(Cache, RejectsGeometriesItCannotIndex)
{
    const auto geometry = [](std::size_t sets, std::size_t ways,
                             std::size_t line) {
        CacheConfig c;
        c.sets = sets;
        c.ways = ways;
        c.lineSize = line;
        return c;
    };
    for (const CacheConfig &bad :
         {geometry(0, 4, 64), geometry(100, 4, 64),
          geometry(256, 0, 64), geometry(256, 4, 0),
          geometry(256, 4, 48)}) {
        ASSERT_NE(cacheGeometryError(bad), nullptr);
        EXPECT_THROW(Cache{bad}, std::invalid_argument);
    }
    EXPECT_STREQ(cacheGeometryError(geometry(100, 4, 64)),
                 "sets must be a power of two");
    EXPECT_STREQ(cacheGeometryError(geometry(256, 0, 64)),
                 "ways must be at least 1");
    EXPECT_STREQ(cacheGeometryError(geometry(256, 4, 48)),
                 "lineSize must be a power of two");
    // Ways need not be a power of two; one set is a fine geometry.
    for (const CacheConfig &good :
         {geometry(256, 3, 64), geometry(1, 1, 64), CacheConfig{}}) {
        EXPECT_EQ(cacheGeometryError(good), nullptr);
        EXPECT_NO_THROW(Cache{good});
    }
}

} // namespace
