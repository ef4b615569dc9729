/**
 * @file
 * Tests for the covert-channel receivers (Section II-C).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <random>
#include <span>
#include <string>

#include "attacks/attack_kit.hh"
#include "uarch/covert.hh"

namespace
{

using namespace specsec::uarch;

struct CovertFixture : ::testing::Test
{
    CovertFixture() : mem(1 << 23)
    {
        pt.mapRange(0, 1 << 23, PageOwner::User, true, true);
    }

    Memory mem;
    PageTable pt;
};

TEST_F(CovertFixture, FlushReloadRecoversPlantedLine)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    // Sender: touch slot 123.
    cpu.timedAccess(0x100000 + 123 * kPageSize);
    const ChannelRecovery r = ch.recover();
    EXPECT_EQ(r.value, 123);
    EXPECT_LT(r.latencies[123], ch.threshold());
    EXPECT_GT(r.latencies[7], ch.threshold());
}

TEST_F(CovertFixture, FlushReloadNoSignalGivesMinusOne)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    EXPECT_EQ(ch.recover().value, -1);
}

TEST_F(CovertFixture, FlushReloadMeasurementIsRepeatable)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    cpu.timedAccess(0x100000 + 42 * kPageSize);
    EXPECT_EQ(ch.recover().value, 42);
    // The probe is non-destructive: a second read still sees it.
    EXPECT_EQ(ch.recover().value, 42);
}

TEST_F(CovertFixture, FlushReloadThreshold)
{
    CpuConfig cfg;
    cfg.cache.hitLatency = 10;
    cfg.cache.missLatency = 110;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 16, kPageSize);
    EXPECT_EQ(ch.threshold(), 60u);
}

TEST_F(CovertFixture, PrimeProbeRecoversEvictedSet)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    ch.prime();
    // Sender: insert a line into set 99 (probe array is
    // set-aligned at 0x100000).
    cpu.timedAccess(0x100000 + 99 * 64);
    const ChannelRecovery r = ch.recover();
    EXPECT_EQ(r.value, 99);
}

TEST_F(CovertFixture, PrimeProbeNoSignalGivesMinusOne)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    ch.prime();
    EXPECT_EQ(ch.recover().value, -1);
}

TEST_F(CovertFixture, PrimeProbeRepeatable)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    for (int trial = 0; trial < 3; ++trial) {
        ch.prime();
        cpu.timedAccess(0x100000 + 50 * 64);
        EXPECT_EQ(ch.recover().value, 50) << "trial " << trial;
    }
}

TEST_F(CovertFixture, EvictTimeRecoversVictimSet)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    // Victim operation: one load of table[secret], timed end to end.
    const int secret = 77;
    const Addr table = 0x100000; // set-aligned
    Program victim;
    victim.emit(load8(6, 3, 0));
    victim.emit(halt());
    cpu.loadProgram(victim);
    cpu.setReg(3, table + secret * 64);

    EvictTimeChannel ch(cpu, 0x200000, 256);
    const ChannelRecovery r = ch.recover(
        [&] { cpu.warmLine(table + secret * 64); },
        [&] { return cpu.run(0).cycles; });
    EXPECT_EQ(r.value, secret);
}

TEST_F(CovertFixture, EvictTimeNoSignalWithoutVictimAccess)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    Program victim;
    victim.emit(movImm(6, 1)); // touches no memory
    victim.emit(halt());
    cpu.loadProgram(victim);
    EvictTimeChannel ch(cpu, 0x200000, 64);
    const ChannelRecovery r =
        ch.recover([] {}, [&] { return cpu.run(0).cycles; });
    EXPECT_EQ(r.value, -1);
}

TEST_F(CovertFixture, CollisionChannelRecoversSecretIndex)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    // Victim: load table[secret], then (dependently) table[guess];
    // a collision makes the second access a hit and the whole
    // operation faster.  The dependency chain mirrors real targets
    // (e.g. chained AES table lookups).
    const int secret = 142;
    const Addr table = 0x100000;
    Program victim;
    victim.emit(load8(6, 3, 0));    // table[secret]
    victim.emit(andImm(7, 6, 0));   // r7 = 0, dependent on the load
    victim.emit(add(8, 4, 7));      // guess address, dependent
    victim.emit(load8(9, 8, 0));    // table[guess]
    victim.emit(halt());
    cpu.loadProgram(victim);
    cpu.setReg(3, table + secret * 64);

    const ChannelRecovery r = recoverByCollision(
        256,
        [&] {
            for (int i = 0; i < 256; ++i)
                cpu.flushLineVirt(table + i * 64);
        },
        [&](int guess) {
            cpu.setReg(4, table + static_cast<Addr>(guess) * 64);
            return cpu.run(0).cycles;
        });
    EXPECT_EQ(r.value, secret);
}

TEST_F(CovertFixture, PartitionedCacheBlocksCrossDomainFlushReload)
{
    CpuConfig cfg;
    cfg.defense.partitionedCache = true;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    cpu.contextSwitch(0);
    cpu.timedAccess(0x100000 + 123 * kPageSize); // victim sends
    cpu.contextSwitch(1);
    EXPECT_EQ(ch.recover().value, -1); // attacker sees nothing
}

/**
 * The per-slot Flush+Reload loop FlushReloadChannel replaced: one
 * flushLineVirt per slot to set up, one timedProbe per slot to
 * recover, value = the first slot with the lowest latency.
 */
struct ReferenceFlushReload
{
    Cpu &cpu;
    Addr base;
    std::size_t slots;
    Addr stride;

    void
    setup()
    {
        for (std::size_t i = 0; i < slots; ++i)
            cpu.flushLineVirt(base + i * stride);
    }

    ChannelRecovery
    recover()
    {
        ChannelRecovery r;
        std::uint32_t best = UINT32_MAX;
        for (std::size_t i = 0; i < slots; ++i) {
            r.latencies.push_back(cpu.timedProbe(base + i * stride));
            if (r.latencies.back() < best) {
                best = r.latencies.back();
                r.value = static_cast<int>(i);
            }
        }
        const CacheConfig &c = cpu.config().cache;
        if (best > (c.hitLatency + c.missLatency) / 2)
            r.value = -1;
        return r;
    }
};

/**
 * The slot a scan of every slot's latency names, as ChannelHarness
 * did before it took its answer from the round's hits: the first
 * slot of the lowest latency below @p limit that @p exclude does
 * not name, or -1.
 */
int
scanFastest(const std::vector<std::uint32_t> &latencies,
            std::uint32_t limit, std::span<const int> exclude)
{
    int best = -1;
    std::uint32_t best_lat = limit;
    for (std::size_t i = 0; i < latencies.size(); ++i) {
        if (latencies[i] < best_lat &&
            std::find(exclude.begin(), exclude.end(),
                      static_cast<int>(i)) == exclude.end()) {
            best_lat = latencies[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

/** One machine of a twin pair: same config, same page table edits. */
struct Machine
{
    explicit Machine(const CpuConfig &cfg) : mem(1 << 16), cpu(cfg, mem, pt)
    {
    }

    /** A machine on a copy of @p table, which keeps its stamp. */
    Machine(const CpuConfig &cfg, const PageTable &table)
        : mem(1 << 16), pt(table), cpu(cfg, mem, pt)
    {
    }

    Memory mem;
    PageTable pt;
    Cpu cpu;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b,
                const std::string &where)
{
    EXPECT_EQ(a.hits, b.hits) << where;
    EXPECT_EQ(a.misses, b.misses) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
    EXPECT_EQ(a.flushes, b.flushes) << where;
}

TEST(FlushReloadDifferential, MatchesPerSlotReferenceOnTwinCpus)
{
    // Random geometries (miss latency sometimes below the hit
    // latency), partitioning toggled between context switches,
    // slots that alias (pages sharing a frame, strides below the
    // line size), slots that fault (unmapped, not present, reserved,
    // kernel, enclave in and out of enclave mode), and page-table
    // edits and privilege changes between calls: every latency,
    // value and CacheStats must match the per-slot loop, and so
    // must the hits and evictions of a random access sequence
    // afterwards, which reads back the LRU order.
    for (unsigned seed = 1; seed <= 300; ++seed) {
        std::mt19937_64 rng(seed);
        const auto pick = [&rng](std::uint64_t n) {
            return std::uniform_int_distribution<std::uint64_t>(
                0, n - 1)(rng);
        };
        CpuConfig cfg;
        cfg.cache.sets = std::size_t{16} << pick(6);     // 16..512
        cfg.cache.ways = 1 + pick(8);                    // 1..8
        cfg.cache.lineSize = std::size_t{32} << pick(3); // 32..128
        cfg.cache.hitLatency = static_cast<std::uint32_t>(1 + pick(40));
        cfg.cache.missLatency = static_cast<std::uint32_t>(1 + pick(300));
        cfg.defense.partitionedCache = pick(2) == 0;
        Machine a(cfg), b(cfg);

        const Addr strides[] = {kPageSize, kPageSize, 8, 16, 48,
                                cfg.cache.lineSize,
                                cfg.cache.lineSize * cfg.cache.sets};
        const Addr base = 0x100000 + 8 * pick(512);
        const Addr stride = strides[pick(std::size(strides))];
        const std::size_t slots = 1 + pick(256);
        const std::string where = "seed " + std::to_string(seed);

        // Every page the slots touch maps to one of a few frames,
        // so slots alias; some pages fault or stay unmapped.
        const auto randomPte = [&] {
            Pte pte;
            pte.physPage = 0x400 + pick(12);
            pte.present = pick(10) != 0;
            pte.reservedBit = pick(20) == 0;
            switch (pick(8)) {
              case 0:
                pte.owner = PageOwner::Kernel;
                pte.userAccessible = false;
                break;
              case 1:
                pte.owner = PageOwner::Enclave;
                pte.userAccessible = false;
                break;
              default:
                break;
            }
            return pte;
        };
        const Addr first_page = base / kPageSize;
        const Addr last_page =
            (base + (slots - 1) * stride) / kPageSize;
        for (Addr page = first_page; page <= last_page; ++page) {
            if (pick(16) == 0)
                continue;
            const Pte pte = randomPte();
            a.pt.map(page * kPageSize, pte);
            b.pt.map(page * kPageSize, pte);
        }
        const auto slotPage = [&] {
            return (base + pick(slots) * stride) / kPageSize *
                   kPageSize;
        };
        // A slot's page offset on one of the slots' frames (a probe
        // line) or on another frame (a line competing for its set).
        const auto nearbyLine = [&] {
            const Addr frame =
                pick(2) == 0 ? 0x400 + pick(12) : 0x480 + pick(64);
            return frame * kPageSize +
                   (base + pick(slots) * stride) % kPageSize;
        };

        FlushReloadChannel channel(a.cpu, base, slots, stride);
        ReferenceFlushReload reference{b.cpu, base, slots, stride};
        for (int step = 0; step < 40; ++step) {
            const std::string at = where + " step " + std::to_string(step);
            switch (pick(9)) {
              case 0:
              case 1:
                channel.setup();
                reference.setup();
                break;
              case 2:
              case 3: {
                const ChannelRecovery got = channel.recover();
                const ChannelRecovery want = reference.recover();
                EXPECT_EQ(got.latencies, want.latencies) << at;
                EXPECT_EQ(got.value, want.value) << at;
                // Below the threshold, with up to three slots that
                // may not win (hit slots among them when any hit).
                std::vector<int> exclude;
                for (std::uint64_t n = pick(4); n > 0; --n) {
                    const bool hit = want.value >= 0 && pick(2) == 0;
                    exclude.push_back(
                        hit ? want.value + static_cast<int>(pick(2))
                            : static_cast<int>(pick(slots)));
                }
                EXPECT_EQ(channel.fastestSlot(channel.threshold(), exclude),
                          scanFastest(want.latencies, channel.threshold(),
                                      exclude))
                    << at;
                break;
              }
              case 4: { // the sender and the victim touch lines
                for (std::uint64_t n = 1 + pick(4); n > 0; --n) {
                    const Addr vaddr = base + pick(slots) * stride;
                    EXPECT_EQ(a.cpu.timedAccess(vaddr),
                              b.cpu.timedAccess(vaddr))
                        << at;
                }
                const Addr line = nearbyLine();
                const int domain = static_cast<int>(pick(3));
                EXPECT_EQ(a.cpu.cache().access(line, domain).latency,
                          b.cpu.cache().access(line, domain).latency)
                    << at;
                break;
              }
              case 5: {
                const int ctx = static_cast<int>(pick(3));
                a.cpu.contextSwitch(ctx);
                b.cpu.contextSwitch(ctx);
                if (pick(4) == 0) {
                    const bool on = !a.cpu.cache().partitioned();
                    a.cpu.cache().setPartitioned(on);
                    b.cpu.cache().setPartitioned(on);
                }
                break;
              }
              case 6: {
                const Privilege p = static_cast<Privilege>(pick(3));
                const bool enclave = pick(2) == 0;
                for (Machine *m : {&a, &b}) {
                    m->cpu.setPrivilege(p);
                    m->cpu.setEnclaveMode(enclave);
                }
                break;
              }
              case 7: { // a page-table edit
                const Addr page = slotPage();
                const int edit = static_cast<int>(pick(4));
                const Pte pte = randomPte();
                const bool flag = pick(2) == 0;
                for (Machine *m : {&a, &b}) {
                    if (edit == 0) {
                        m->pt.map(page, pte);
                    } else if (edit == 1) {
                        m->pt.unmap(page);
                    } else if (m->pt.lookup(page) == nullptr) {
                        continue;
                    } else if (edit == 2) {
                        m->pt.setPresent(page, flag);
                    } else {
                        m->pt.setReservedBit(page, flag);
                    }
                }
                break;
              }
              default:
                break;
            }
            expectSameStats(a.cpu.cache().stats(), b.cpu.cache().stats(),
                            at);
        }

        // The LRU order a probe leaves, read back: every later fill
        // evicts the same line on both machines.
        EXPECT_EQ(channel.recover().latencies,
                  reference.recover().latencies)
            << where;
        for (int i = 0; i < 64; ++i) {
            const Addr line = nearbyLine();
            const int domain = static_cast<int>(pick(3));
            const CacheAccess x = a.cpu.cache().access(line, domain);
            const CacheAccess y = b.cpu.cache().access(line, domain);
            EXPECT_EQ(x.hit, y.hit) << where << " access " << i;
            EXPECT_EQ(x.evicted, y.evicted) << where << " access " << i;
            EXPECT_EQ(x.evictedLineAddr, y.evictedLineAddr)
                << where << " access " << i;
        }
        expectSameStats(a.cpu.cache().stats(), b.cpu.cache().stats(),
                        where);
    }
}

TEST(FlushReloadHarness, RecoverMatchesAScanOfTheReferenceLatencies)
{
    // ChannelHarness::recover takes its Flush+Reload answer from the
    // round's hit slots; it must name the slot a scan of a twin
    // per-slot reference's latencies names.  Slots 3, 40 and 200
    // carry the sender's lines and, in half the runs, slot 0 faults.
    // Each latency setting orders the three classes differently:
    // hits win (default, miss 20), nothing wins (miss = hit + 1:
    // the threshold is the hit latency), misses win (miss < hit),
    // and misses and faults tie (miss 0).
    using specsec::attacks::ChannelHarness;
    using specsec::attacks::Layout;
    using specsec::attacks::Scenario;
    CpuConfig fastMiss, hitPlusOne, missBelowHit, freeMiss;
    fastMiss.cache.missLatency = 20;
    hitPlusOne.cache.missLatency = hitPlusOne.cache.hitLatency + 1;
    missBelowHit.cache.hitLatency = 40;
    missBelowHit.cache.missLatency = 5;
    freeMiss.cache.missLatency = 0;
    const struct
    {
        const char *name;
        CpuConfig cfg;
    } cases[] = {{"default", CpuConfig{}},
                 {"miss 20", fastMiss},
                 {"miss = hit + 1", hitPlusOne},
                 {"miss < hit", missBelowHit},
                 {"miss 0", freeMiss}};
    // None, the lowest hit slot, every hit slot, a miss slot, and
    // the faulting slot with a miss slot.
    const std::initializer_list<int> excludes[] = {
        {}, {3}, {3, 40, 200}, {1}, {0, 1}};
    constexpr Addr base = Layout::kProbeArray;
    for (const auto &c : cases) {
        for (const bool faulting : {false, true}) {
            Scenario s(c.cfg), twin(c.cfg);
            if (faulting) {
                s.pageTable().setPresent(base, false);
                twin.pageTable().setPresent(base, false);
            }
            ChannelHarness harness(s.cpu(),
                                   specsec::core::CovertChannelKind::
                                       FlushReload);
            ReferenceFlushReload reference{twin.cpu(), base, 256,
                                           kPageSize};
            const CacheConfig &cache = c.cfg.cache;
            const std::uint32_t threshold =
                (cache.hitLatency + cache.missLatency) / 2;
            for (std::size_t k = 0; k < std::size(excludes); ++k) {
                const std::string at = std::string(c.name) +
                                       (faulting ? ", faulting" : "") +
                                       ", exclude set " +
                                       std::to_string(k);
                harness.setup();
                reference.setup();
                for (const int slot : {3, 40, 200}) {
                    s.cpu().timedAccess(base + slot * kPageSize);
                    twin.cpu().timedAccess(base + slot * kPageSize);
                }
                const int got = harness.recover(excludes[k]);
                const ChannelRecovery want = reference.recover();
                EXPECT_EQ(got, scanFastest(want.latencies, threshold,
                                           excludes[k]))
                    << at;
                expectSameStats(s.cpu().cache().stats(),
                                twin.cpu().cache().stats(), at);
            }
        }
    }
}

TEST(FlushReloadSharing, TablesDifferingInOneProbeSlotKeepTheirOwnReads)
{
    // Receivers on one thread share a preparation between tables
    // with the same version() stamp.  Two tables that took the same
    // number of edits and differ only in one probe slot's PTE (User
    // in one, Kernel in the other) must each be read for itself:
    // the Kernel slot faults (twice the miss latency, never a hit),
    // the User slot carries the sender's line.
    constexpr Addr base = 0x100000;
    constexpr std::size_t slot = 77;
    const auto build = [](Machine &m, PageOwner owner) {
        m.pt.mapRange(base, 256 * kPageSize, PageOwner::User, true, true);
        Pte pte;
        pte.physPage = base / kPageSize + slot;
        pte.owner = owner;
        pte.userAccessible = owner == PageOwner::User;
        m.pt.map(base + slot * kPageSize, pte);
    };
    const CpuConfig cfg;
    Machine user(cfg), userTwin(cfg), kernel(cfg), kernelTwin(cfg);
    build(user, PageOwner::User);
    build(userTwin, PageOwner::User);
    build(kernel, PageOwner::Kernel);
    build(kernelTwin, PageOwner::Kernel);

    FlushReloadChannel userChannel(user.cpu, base);
    FlushReloadChannel kernelChannel(kernel.cpu, base);
    ReferenceFlushReload userReference{userTwin.cpu, base, 256,
                                       kPageSize};
    ReferenceFlushReload kernelReference{kernelTwin.cpu, base, 256,
                                         kPageSize};
    for (int round = 0; round < 3; ++round) {
        const std::string at = "round " + std::to_string(round);
        // The User table's receiver prepares first, so the Kernel
        // one would find its preparation if the stamps collided.
        userChannel.setup();
        userReference.setup();
        kernelChannel.setup();
        kernelReference.setup();
        for (Machine *m : {&user, &userTwin, &kernel, &kernelTwin})
            m->cpu.timedAccess(base + slot * kPageSize); // the sender
        const ChannelRecovery gotUser = userChannel.recover();
        const ChannelRecovery wantUser = userReference.recover();
        const ChannelRecovery gotKernel = kernelChannel.recover();
        const ChannelRecovery wantKernel = kernelReference.recover();
        EXPECT_EQ(gotUser.latencies, wantUser.latencies) << at;
        EXPECT_EQ(gotUser.value, wantUser.value) << at;
        EXPECT_EQ(gotKernel.latencies, wantKernel.latencies) << at;
        EXPECT_EQ(gotKernel.value, wantKernel.value) << at;
        EXPECT_EQ(gotUser.value, static_cast<int>(slot)) << at;
        EXPECT_EQ(gotKernel.value, -1) << at;
        EXPECT_EQ(gotKernel.latencies[slot],
                  2 * cfg.cache.missLatency)
            << at;
        expectSameStats(user.cpu.cache().stats(),
                        userTwin.cpu.cache().stats(), "user " + at);
        expectSameStats(kernel.cpu.cache().stats(),
                        kernelTwin.cpu.cache().stats(), "kernel " + at);
    }
}

TEST(FlushReloadSharing, OneStampUnderEachGeometryAndPrivilege)
{
    // Copies of one table share its stamp, as every scenario's copy
    // of the layout does, so receivers on caches of another
    // geometry or miss latency, or at another privilege, must not
    // take each other's preparations.  Slot 16 is a kernel page: a
    // fault at user privilege, a line the sender fills at kernel.
    constexpr Addr base = 0x100000;
    PageTable layout;
    layout.mapRange(base, 256 * kPageSize, PageOwner::User, true, true);
    layout.mapRange(base + 16 * kPageSize, kPageSize, PageOwner::Kernel,
                    false, true);
    CpuConfig small, fastMiss;
    small.cache.sets = 64;
    small.cache.lineSize = 32;
    fastMiss.cache.missLatency = 20;
    const struct
    {
        const char *name;
        CpuConfig cfg;
        Privilege privilege;
    } cases[] = {{"default", CpuConfig{}, Privilege::User},
                 {"64 sets x 32 B", small, Privilege::User},
                 {"miss 20", fastMiss, Privilege::User},
                 {"kernel", CpuConfig{}, Privilege::Kernel}};
    for (const auto &c : cases) {
        Machine m(c.cfg, layout), twin(c.cfg, layout);
        ASSERT_EQ(m.pt.version(), layout.version());
        m.cpu.setPrivilege(c.privilege);
        twin.cpu.setPrivilege(c.privilege);
        FlushReloadChannel channel(m.cpu, base);
        ReferenceFlushReload reference{twin.cpu, base, 256, kPageSize};
        channel.setup();
        reference.setup();
        for (Machine *x : {&m, &twin}) {
            x->cpu.timedAccess(base + 5 * kPageSize);
            x->cpu.timedAccess(base + 16 * kPageSize);
        }
        const ChannelRecovery got = channel.recover();
        const ChannelRecovery want = reference.recover();
        EXPECT_EQ(got.latencies, want.latencies) << c.name;
        EXPECT_EQ(got.value, want.value) << c.name;
        expectSameStats(m.cpu.cache().stats(), twin.cpu.cache().stats(),
                        c.name);
    }
}

} // namespace
