#include "covert.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

namespace specsec::uarch
{

struct FlushReloadChannel::Preparation
{
    LineGroup flushLines; ///< slots with a PTE (flushLineVirt)
    LineGroup probeLines; ///< slots that translate without a fault
    /// Each slot's latency if it misses: a miss, or two for a fault.
    std::vector<std::uint32_t> missLatencies;
};

namespace
{

/** Everything a Flush+Reload preparation is read from. */
struct PreparationKey
{
    std::uint64_t ptVersion;
    Privilege privilege;
    bool enclaveMode;
    Addr probeBase;
    std::size_t slots;
    Addr stride;
    std::size_t sets;
    std::size_t lineSize;
    std::uint32_t missLatency;

    bool operator==(const PreparationKey &) const = default;
};

} // namespace

FlushReloadChannel::FlushReloadChannel(Cpu &cpu, Addr probe_base,
                                       std::size_t slots, Addr stride)
    : cpu_(cpu), probeBase_(probe_base), slots_(slots), stride_(stride)
{
}

std::uint32_t
FlushReloadChannel::threshold() const
{
    const CacheConfig &c = cpu_.config().cache;
    return (c.hitLatency + c.missLatency) / 2;
}

void
FlushReloadChannel::refresh()
{
    const PageTable &pt = cpu_.pageTable();
    if (prep_ && ptVersion_ == pt.version() &&
        privilege_ == cpu_.privilege() &&
        enclaveMode_ == cpu_.enclaveMode())
        return;
    ptVersion_ = pt.version();
    privilege_ = cpu_.privilege();
    enclaveMode_ = cpu_.enclaveMode();
    const CacheConfig &c = cpu_.config().cache;
    const PreparationKey key{ptVersion_, privilege_, enclaveMode_,
                             probeBase_, slots_, stride_,
                             c.sets, c.lineSize, c.missLatency};

    // The thread's last few preparations, most recent first.  Cells
    // that make the same edits to one layout share a stamp, so a
    // preparation serves every cell of an edited kind as well.  A
    // golden-gate pass reads 16 distinct keys (edits, privileges and
    // cache geometries), and 32 keep them all.
    using Entry =
        std::pair<PreparationKey, std::shared_ptr<const Preparation>>;
    thread_local std::array<Entry, 32> recent;
    const auto hit =
        std::find_if(recent.begin(), recent.end(),
                     [&key](const Entry &e) { return e.first == key; });
    if (hit != recent.end() && hit->second) {
        std::rotate(recent.begin(), hit, hit + 1);
        prep_ = recent.front().second;
        return;
    }

    auto prep = std::make_shared<Preparation>();
    std::vector<std::optional<Addr>> flush(slots_), probe(slots_);
    prep->missLatencies.assign(slots_, c.missLatency * 2); // timedProbe
    bool faults = false;
    for (std::size_t i = 0; i < slots_; ++i) {
        const Translation t =
            pt.translate(probeBase_ + i * stride_, AccessType::Read,
                         privilege_, enclaveMode_);
        // paddrValid means a PTE exists: flushLineVirt flushes its
        // line whether or not the access would fault.
        if (!t.paddrValid)
            continue;
        flush[i] = t.paddr;
        if (t.fault == FaultKind::None) {
            probe[i] = t.paddr;
            prep->missLatencies[i] = c.missLatency;
        } else {
            faults = true;
        }
    }
    const Cache &cache = cpu_.cache();
    prep->flushLines = cache.prepareGroup(flush);
    // With no faulting PTE the probed lines are the flushed ones.
    prep->probeLines =
        faults ? cache.prepareGroup(probe) : prep->flushLines;
    std::rotate(recent.begin(), recent.end() - 1, recent.end());
    recent.front() = {key, prep};
    prep_ = std::move(prep);
}

void
FlushReloadChannel::setup()
{
    refresh();
    cpu_.cache().flushGroup(prep_->flushLines);
}

const ChannelRecovery &
FlushReloadChannel::recover()
{
    refresh();
    ChannelRecovery &r = recovery_;
    r.latencies.assign(prep_->missLatencies.begin(),
                       prep_->missLatencies.end());
    cpu_.cache().probeGroup(prep_->probeLines, cpu_.context(), hits_);
    for (const std::uint32_t slot : hits_)
        r.latencies[slot] = cpu_.config().cache.hitLatency;
    r.value = fastestSlot(threshold() + 1); // -1: every slot missed
    return r;
}

int
FlushReloadChannel::fastestSlot(std::uint32_t limit,
                                std::span<const int> exclude) const
{
    const auto excluded = [exclude](std::size_t slot) {
        return std::find(exclude.begin(), exclude.end(),
                         static_cast<int>(slot)) != exclude.end();
    };
    // The best (latency, slot) so far; none while best_lat is the
    // limit, which no slot beats by reading it.
    std::uint32_t best_lat = limit;
    std::size_t best = 0;
    const auto beats = [&](std::uint32_t lat, std::size_t slot) {
        return lat < best_lat || (lat == best_lat && slot < best);
    };
    const CacheConfig &c = cpu_.config().cache;
    for (const std::uint32_t slot : hits_) {
        if (beats(c.hitLatency, slot) && !excluded(slot)) {
            best_lat = c.hitLatency;
            best = slot;
        }
    }
    // A miss or a fault wins only where its latency is below every
    // hit's: look for the first slot that reads it, up to the best.
    const std::vector<std::uint32_t> &lat = recovery_.latencies;
    for (const std::uint32_t other : {c.missLatency, c.missLatency * 2}) {
        for (std::size_t i = 0; i < lat.size() && beats(other, i); ++i) {
            if (lat[i] == other && !excluded(i)) {
                best_lat = other;
                best = i;
                break;
            }
        }
    }
    return best_lat < limit ? static_cast<int>(best) : -1;
}

PrimeProbeChannel::PrimeProbeChannel(Cpu &cpu, Addr evict_base,
                                     std::size_t slots)
    : cpu_(cpu), evictBase_(evict_base), slots_(slots)
{
}

void
PrimeProbeChannel::prime()
{
    const CacheConfig &c = cpu_.config().cache;
    const Addr way_stride = c.sets * c.lineSize;
    for (std::size_t s = 0; s < slots_; ++s) {
        for (std::size_t w = 0; w < c.ways; ++w) {
            cpu_.timedAccess(evictBase_ + s * c.lineSize +
                             w * way_stride);
        }
    }
}

const ChannelRecovery &
PrimeProbeChannel::recover()
{
    const CacheConfig &c = cpu_.config().cache;
    const Addr way_stride = c.sets * c.lineSize;
    ChannelRecovery &r = recovery_;
    r.value = -1;
    r.latencies.resize(slots_);
    std::uint32_t best = 0;
    for (std::size_t s = 0; s < slots_; ++s) {
        std::uint32_t total = 0;
        for (std::size_t w = 0; w < c.ways; ++w) {
            total += cpu_.timedAccess(evictBase_ + s * c.lineSize +
                                      w * way_stride);
        }
        r.latencies[s] = total;
        if (total > best) {
            best = total;
            r.value = static_cast<int>(s);
        }
    }
    // A set the sender evicted shows at least one miss.
    if (best < c.ways * c.hitLatency + c.missLatency - c.hitLatency)
        r.value = -1;
    return r;
}

EvictTimeChannel::EvictTimeChannel(Cpu &cpu, Addr evict_base,
                                   std::size_t slots)
    : cpu_(cpu), evictBase_(evict_base), slots_(slots)
{
}

void
EvictTimeChannel::evictSet(std::size_t set)
{
    const CacheConfig &c = cpu_.config().cache;
    const Addr way_stride = c.sets * c.lineSize;
    for (std::size_t w = 0; w < c.ways; ++w)
        cpu_.timedAccess(evictBase_ + set * c.lineSize +
                         w * way_stride);
}

ChannelRecovery
EvictTimeChannel::recover(const std::function<void()> &prepare,
                          const std::function<std::uint64_t()>
                              &victim_op)
{
    ChannelRecovery r;
    r.latencies.resize(slots_);
    std::uint64_t best = 0;
    std::uint64_t floor = UINT64_MAX;
    for (std::size_t s = 0; s < slots_; ++s) {
        prepare();
        evictSet(s);
        const std::uint64_t t = victim_op();
        r.latencies[s] = static_cast<std::uint32_t>(t);
        floor = std::min(floor, t);
        if (t > best) {
            best = t;
            r.value = static_cast<int>(s);
        }
    }
    // No slowdown above the common-case floor: no signal.
    if (best < floor + cpu_.config().cache.missLatency / 2)
        r.value = -1;
    return r;
}

ChannelRecovery
recoverByCollision(std::size_t slots,
                   const std::function<void()> &prepare,
                   const std::function<std::uint64_t(int)> &victim_op)
{
    ChannelRecovery r;
    r.latencies.resize(slots);
    std::uint64_t best = UINT64_MAX;
    std::uint64_t ceiling = 0;
    for (std::size_t g = 0; g < slots; ++g) {
        prepare();
        const std::uint64_t t = victim_op(static_cast<int>(g));
        r.latencies[g] = static_cast<std::uint32_t>(t);
        ceiling = std::max(ceiling, t);
        if (t < best) {
            best = t;
            r.value = static_cast<int>(g);
        }
    }
    if (ceiling == best)
        r.value = -1; // no collision speedup observed
    return r;
}

} // namespace specsec::uarch
