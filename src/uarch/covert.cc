#include "covert.hh"

#include <algorithm>
#include <optional>

namespace specsec::uarch
{

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
    if (fresh_ && ptVersion_ == pt.version() &&
        privilege_ == cpu_.privilege() &&
        enclaveMode_ == cpu_.enclaveMode())
        return;
    fresh_ = true;
    ptVersion_ = pt.version();
    privilege_ = cpu_.privilege();
    enclaveMode_ = cpu_.enclaveMode();
    const std::uint32_t miss = cpu_.config().cache.missLatency;
    std::vector<std::optional<Addr>> flush(slots_), probe(slots_);
    missLatencies_.assign(slots_, miss * 2); // Cpu::timedProbe
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
            missLatencies_[i] = miss;
        } else {
            faults = true;
        }
    }
    const Cache &cache = cpu_.cache();
    flushLines_ = cache.prepareGroup(flush);
    // With no faulting PTE the probed lines are the flushed ones.
    probeLines_ = faults ? cache.prepareGroup(probe) : flushLines_;
}

void
FlushReloadChannel::setup()
{
    refresh();
    cpu_.cache().flushGroup(flushLines_);
}

ChannelRecovery
FlushReloadChannel::recover()
{
    refresh();
    ChannelRecovery r;
    r.latencies = missLatencies_;
    cpu_.cache().probeGroup(probeLines_, cpu_.context(),
                            r.latencies.data());
    // The first slot with the lowest latency, in two passes that
    // each compile to a straight loop.
    std::uint32_t best = UINT32_MAX;
    for (const std::uint32_t lat : r.latencies)
        best = std::min(best, lat);
    r.value = static_cast<int>(
        std::find(r.latencies.begin(), r.latencies.end(), best) -
        r.latencies.begin());
    if (best > threshold())
        r.value = -1; // every slot missed: no signal
    return r;
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

ChannelRecovery
PrimeProbeChannel::recover()
{
    const CacheConfig &c = cpu_.config().cache;
    const Addr way_stride = c.sets * c.lineSize;
    ChannelRecovery r;
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
