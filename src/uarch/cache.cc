#include "cache.hh"

#include <algorithm>
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

LineGroup
Cache::prepareGroup(const std::vector<std::optional<Addr>> &lines) const
{
    LineGroup group;
    // Counting sort by set, so each set's members stay in slot order.
    std::vector<std::uint32_t> next(config_.sets, 0);
    for (const std::optional<Addr> &line : lines) {
        if (line)
            ++next[setIndex(*line)];
    }
    std::uint32_t placed = 0;
    for (std::size_t set = 0; set < config_.sets; ++set) {
        const std::uint32_t n = next[set];
        next[set] = placed;
        if (n != 0)
            group.sets_.push_back({set, placed, placed + n});
        placed += n;
    }
    group.members_.resize(placed);
    std::uint32_t rank = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (const std::optional<Addr> &line = lines[i])
            group.members_[next[setIndex(*line)]++] = {
                lineTag(*line), static_cast<std::uint32_t>(i), ++rank};
    }
    // A probe array's slots ascend in address, so a set's members
    // usually ascend in tag already; sort only a set that does not.
    const auto byTag = [](const LineGroup::Member &a,
                          const LineGroup::Member &b) {
        return a.tag != b.tag ? a.tag < b.tag : a.slot < b.slot;
    };
    for (const LineGroup::Set &set : group.sets_) {
        const auto first = group.members_.begin() + set.begin;
        const auto last = group.members_.begin() + set.end;
        if (!std::is_sorted(first, last, byTag))
            std::sort(first, last, byTag);
    }
    return group;
}

} // namespace specsec::uarch
