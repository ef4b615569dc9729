#include "attack_kit.hh"

#include <algorithm>

#include "phase.hh"

namespace specsec::attacks
{

namespace
{

thread_local uarch::CpuStats tlsLastStats;
thread_local std::uint64_t tlsScenarioDeaths = 0;

/** The canonical scenario layout, shared by every attack runner. */
const uarch::PageTable &
layoutPageTable()
{
    static const uarch::PageTable pt = [] {
        uarch::PageTable t;
        // Shared / attacker-accessible regions.
        t.mapRange(Layout::kProbeArray, 256 * uarch::kPageSize,
                   uarch::PageOwner::User, true, true);
        t.mapRange(Layout::kEvictArray, 0x10000,
                   uarch::PageOwner::User, true, true);
        // Victim user-space data (bounds-protected, not OS-protected).
        t.mapRange(Layout::kVictimArray, 0x8000,
                   uarch::PageOwner::User, true, true);
        t.mapRange(Layout::kReadOnlyPage, uarch::kPageSize,
                   uarch::PageOwner::User, true, /*writable=*/false);
        t.mapRange(Layout::kUserSecret, uarch::kPageSize,
                   uarch::PageOwner::User, true, true);
        // Privileged regions.
        t.mapRange(Layout::kKernelData, uarch::kPageSize,
                   uarch::PageOwner::Kernel, false, true);
        t.mapRange(Layout::kEnclaveData, uarch::kPageSize,
                   uarch::PageOwner::Enclave, false, true);
        t.mapRange(Layout::kVmmData, uarch::kPageSize,
                   uarch::PageOwner::Vmm, false, true);
        // Layout::kUnmapped intentionally has no PTE.
        return t;
    }();
    return pt;
}

} // namespace

const uarch::CpuStats &
lastScenarioStats()
{
    return tlsLastStats;
}

std::uint64_t
scenarioDeathCount()
{
    return tlsScenarioDeaths;
}

/** Declared in this order so the Cpu, which references the memory
 *  and page table, is built after and destroyed before them. */
struct Scenario::State
{
    explicit State(const CpuConfig &config) : cpu(config, mem, pt) {}

    uarch::Memory mem{Layout::kMemorySize};
    uarch::PageTable pt = layoutPageTable();
    Cpu cpu;
};

Scenario::Scenario(const CpuConfig &config)
{
    ScopedPhaseTimer timer(Phase::Build);
    state_ = std::make_unique<State>(config);
}

Scenario::~Scenario()
{
    tlsLastStats = state_->cpu.stats();
    ++tlsScenarioDeaths;
    ScopedPhaseTimer timer(Phase::Teardown);
    state_.reset();
}

Cpu &
Scenario::cpu()
{
    return state_->cpu;
}

uarch::Memory &
Scenario::mem()
{
    return state_->mem;
}

uarch::PageTable &
Scenario::pageTable()
{
    return state_->pt;
}

void
Scenario::plantBytes(Addr vaddr, const std::vector<std::uint8_t> &data)
{
    for (std::size_t i = 0; i < data.size(); ++i)
        state_->mem.write8(vaddr + i, data[i]);
}

std::vector<std::uint8_t>
Scenario::readBytes(Addr vaddr, std::size_t len) const
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = state_->mem.read8(vaddr + i);
    return out;
}

ChannelHarness::ChannelHarness(Cpu &cpu, CovertChannelKind kind)
    : cpu_(cpu), kind_(kind),
      fr_(cpu, Layout::kProbeArray, 256, uarch::kPageSize),
      pp_(cpu, Layout::kEvictArray, 256)
{
}

void
ChannelHarness::setup()
{
    if (kind_ == CovertChannelKind::FlushReload)
        fr_.setup();
    else
        pp_.prime();
}

int
ChannelHarness::recover(std::initializer_list<int> exclude)
{
    // An excluded slot never wins.  Flush+Reload keeps the lowest
    // latency below its threshold, found from the round's hits.
    if (kind_ == CovertChannelKind::FlushReload) {
        fr_.recover();
        return fr_.fastestSlot(fr_.threshold(),
                               {exclude.begin(), exclude.size()});
    }
    // Prime+Probe keeps the highest above its floor; an excluded
    // slot is looked up only for a slot whose latency would win.
    const std::vector<std::uint32_t> &lat = pp_.recover().latencies;
    const auto excluded = [exclude](std::size_t i) {
        return std::find(exclude.begin(), exclude.end(),
                         static_cast<int>(i)) != exclude.end();
    };
    const uarch::CacheConfig &c = cpu_.config().cache;
    const std::uint32_t floor =
        c.ways * c.hitLatency + c.missLatency - c.hitLatency;
    std::uint32_t best_lat = floor - 1;
    int best = -1;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        if (lat[i] > best_lat && !excluded(i)) {
            best_lat = lat[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
ChannelHarness::noiseSet(Addr vaddr) const
{
    if (kind_ != CovertChannelKind::PrimeProbe)
        return -1;
    const uarch::CacheConfig &c = cpu_.config().cache;
    return static_cast<int>((vaddr / c.lineSize) % c.sets);
}

unsigned
ChannelHarness::sendShift() const
{
    // Flush+Reload probes page-strided slots; Prime+Probe encodes
    // the byte as a cache set (line stride).
    return kind_ == CovertChannelKind::FlushReload ? 12 : 6;
}

AttackResult
scoreResult(std::string name, const std::vector<int> &recovered,
            const std::vector<std::uint8_t> &expected,
            std::uint64_t guest_cycles,
            std::uint64_t transient_forwards)
{
    AttackResult r;
    r.name = std::move(name);
    r.recovered = recovered;
    r.expected = expected;
    r.guestCycles = guest_cycles;
    r.transientForwards = transient_forwards;
    std::size_t match = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (i < recovered.size() &&
            recovered[i] == static_cast<int>(expected[i])) {
            ++match;
        }
    }
    r.accuracy = expected.empty()
                     ? 0.0
                     : static_cast<double>(match) / expected.size();
    r.leaked = r.accuracy >= 0.9;
    return r;
}

std::vector<std::uint8_t>
defaultSecret(std::size_t len)
{
    static const char kText[] =
        "SQUEAMISH OSSIFRAGE: the magic words for transient leaks";
    std::vector<std::uint8_t> secret(len);
    for (std::size_t i = 0; i < len; ++i)
        secret[i] = static_cast<std::uint8_t>(
            kText[i % (sizeof(kText) - 1)]);
    return secret;
}

} // namespace specsec::attacks
