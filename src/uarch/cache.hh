/**
 * @file
 * A set-associative, metadata-only L1 data cache with LRU
 * replacement, explicit flush, timing, per-line domain tags (for
 * DAWG-style partitioning) and undo support (for CleanupSpec).
 *
 * The cache tracks *presence and timing*, not data: data always
 * comes from physical memory or the store buffer.  This is
 * sufficient for covert-channel modeling because the channel signal
 * is the hit/miss latency difference, and it keeps squashed
 * speculative state trivially consistent (the paper's point: caches
 * are micro-architectural state that is *not* rolled back).
 */

#ifndef SPECSEC_UARCH_CACHE_HH
#define SPECSEC_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "isa.hh"

namespace specsec::uarch
{

/** Cache geometry and timing. */
struct CacheConfig
{
    std::size_t sets = 256;
    std::size_t ways = 4;
    std::size_t lineSize = 64;
    std::uint32_t hitLatency = 4;
    std::uint32_t missLatency = 200;
};

/** Result of a cache access. */
struct CacheAccess
{
    bool hit = false;
    std::uint32_t latency = 0;
    bool evicted = false; ///< an existing line was displaced
    Addr evictedLineAddr = 0;
};

/**
 * Why @p config cannot build a Cache, or nullptr when it can: ways
 * must be at least 1, and sets and lineSize powers of two, because
 * the cache indexes with a shift and a mask.  Every parser of a
 * geometry (scenario keys, campaign grids, the CLI) checks this so
 * a bad geometry is a named error, not a crash mid-run.
 */
const char *cacheGeometryError(const CacheConfig &config);

/** Hit/miss statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flushes = 0;
};

/**
 * The L1 data cache.
 *
 * Domain tags: when partitioned mode is on (DAWG model), a lookup
 * from domain D only hits lines installed by domain D, reproducing
 * the "sender's state change is invisible across domains" defense.
 */
class Cache
{
  public:
    /** @throws std::invalid_argument when cacheGeometryError() does. */
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    /** Enable DAWG-style domain partitioning. */
    void setPartitioned(bool partitioned) { partitioned_ = partitioned; }
    bool partitioned() const { return partitioned_; }

    /**
     * Access the line containing @p paddr from @p domain.
     *
     * @param allocate Insert the line on a miss (a normal fill).
     *        Pass false for InvisiSpec-style invisible speculative
     *        loads: the latency is real but no state changes.
     */
    CacheAccess access(Addr paddr, int domain = 0,
                       bool allocate = true);

    /** @return true if the line is present (no LRU/state change). */
    bool
    contains(Addr paddr, int domain = 0) const
    {
        return find(paddr, domain) != nullptr;
    }

    /** Insert without timing (commit-time fill for InvisiSpec). */
    void insert(Addr paddr, int domain = 0);

    /** Remove the line if present (clflush, CleanupSpec undo). */
    bool flushLine(Addr paddr);

    /** Remove every line. */
    void flushAll();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /** @return set index for an address (for Prime+Probe harness). */
    std::size_t
    setIndex(Addr paddr) const
    {
        return static_cast<std::size_t>(lineTag(paddr) & setMask_);
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        int domain = 0;
        std::uint64_t lastUse = 0;
    };

    /** Line address (paddr / lineSize) — also the stored tag. */
    Addr lineTag(Addr paddr) const { return paddr >> lineShift_; }

    /** First way of @p paddr's set in lines_. */
    Line *
    setBase(Addr paddr)
    {
        return &lines_[setIndex(paddr) * config_.ways];
    }

    Line *find(Addr paddr, int domain);
    const Line *
    find(Addr paddr, int domain) const
    {
        return const_cast<Cache *>(this)->find(paddr, domain);
    }

    CacheConfig config_;
    bool partitioned_ = false;
    unsigned lineShift_ = 0; ///< log2(lineSize)
    Addr setMask_ = 0;       ///< sets - 1
    std::vector<Line> lines_; ///< sets * ways, row-major by set
    std::uint64_t useCounter_ = 0;
    CacheStats stats_;
};

// The receiver harness calls these thousands of times per cell, so
// they are defined here for inlining into its loops.

inline Cache::Line *
Cache::find(Addr paddr, int domain)
{
    const Addr tag = lineTag(paddr);
    Line *set = setBase(paddr);
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag &&
            (!partitioned_ || line.domain == domain)) {
            return &line;
        }
    }
    return nullptr;
}

inline CacheAccess
Cache::access(Addr paddr, int domain, bool allocate)
{
    CacheAccess result;
    ++useCounter_;
    if (Line *line = find(paddr, domain)) {
        line->lastUse = useCounter_;
        result.hit = true;
        result.latency = config_.hitLatency;
        ++stats_.hits;
        return result;
    }
    result.hit = false;
    result.latency = config_.missLatency;
    ++stats_.misses;
    if (!allocate)
        return result;

    // Fill: pick an invalid way, else evict LRU (ways >= 1, so a
    // victim always exists).
    Line *set = setBase(paddr);
    Line *victim = &set[0];
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = set[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    if (victim->valid) {
        result.evicted = true;
        result.evictedLineAddr = victim->tag << lineShift_;
        ++stats_.evictions;
    }
    victim->valid = true;
    victim->tag = lineTag(paddr);
    victim->domain = domain;
    victim->lastUse = useCounter_;
    return result;
}

inline bool
Cache::flushLine(Addr paddr)
{
    const Addr tag = lineTag(paddr);
    Line *set = setBase(paddr);
    bool flushed = false;
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.valid = false;
            flushed = true;
            ++stats_.flushes;
        }
    }
    return flushed;
}

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_CACHE_HH
