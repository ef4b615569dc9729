#include "cache.hh"

#include <bit>
#include <stdexcept>
#include <string>

namespace specsec::uarch
{

const char *
cacheGeometryError(const CacheConfig &config)
{
    if (config.ways < 1)
        return "ways must be at least 1";
    if (!std::has_single_bit(config.sets))
        return "sets must be a power of two";
    if (!std::has_single_bit(config.lineSize))
        return "lineSize must be a power of two";
    return nullptr;
}

Cache::Cache(const CacheConfig &config) : config_(config)
{
    if (const char *why = cacheGeometryError(config))
        throw std::invalid_argument(std::string("Cache: ") + why);
    lineShift_ =
        static_cast<unsigned>(std::countr_zero(config.lineSize));
    setMask_ = config.sets - 1;
    lines_.resize(config.sets * config.ways);
}

void
Cache::insert(Addr paddr, int domain)
{
    access(paddr, domain, true);
}

void
Cache::flushAll()
{
    for (Line &line : lines_)
        line.valid = false;
    // With every line invalid the old lastUse values can never be
    // compared again, so the use counter restarts: a fully flushed
    // cache is indistinguishable from a fresh one, and its later
    // eviction decisions cannot depend on what ran before the flush.
    useCounter_ = 0;
    ++stats_.flushes;
}

} // namespace specsec::uarch
