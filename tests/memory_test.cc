/**
 * @file
 * Tests for physical memory and the paging / permission model,
 * including the fault-ordering property Foreshadow depends on
 * (terminal faults before privilege checks) and the fact that a
 * faulting translation still exposes the physical address bits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "uarch/memory.hh"

namespace
{

using namespace specsec::uarch;

TEST(Memory, ByteReadWrite)
{
    Memory m(4096);
    m.write8(10, 0xab);
    EXPECT_EQ(m.read8(10), 0xab);
    EXPECT_EQ(m.read8(11), 0);
}

TEST(Memory, Word64LittleEndian)
{
    Memory m(4096);
    m.write64(0, 0x1122334455667788ull);
    EXPECT_EQ(m.read8(0), 0x88);
    EXPECT_EQ(m.read8(7), 0x11);
    EXPECT_EQ(m.read64(0), 0x1122334455667788ull);
}

TEST(Memory, SizedAccessors)
{
    Memory m(4096);
    m.write(100, 0xdeadbeefcafef00dull, 8);
    EXPECT_EQ(m.read(100, 8), 0xdeadbeefcafef00dull);
    m.write(200, 0x1ff, 1); // truncated to a byte
    EXPECT_EQ(m.read(200, 1), 0xffu);
}

TEST(Memory, OutOfRangeThrows)
{
    Memory m(64);
    EXPECT_THROW(m.read8(64), std::out_of_range);
    EXPECT_THROW(m.write64(60, 1), std::out_of_range);
    // paddr + len wraps past 2^64 here; the check must not.
    EXPECT_THROW(m.read8(UINT64_MAX), std::out_of_range);
    EXPECT_THROW(m.read64(UINT64_MAX - 3), std::out_of_range);
    EXPECT_THROW(m.write64(UINT64_MAX - 3, 1), std::out_of_range);
}

TEST(Memory, UnwrittenPagesReadZero)
{
    Memory m(4 * kPageSize);
    m.write8(kPageSize + 7, 0x5a);
    EXPECT_EQ(m.read8(2 * kPageSize + 7), 0u);
    EXPECT_EQ(m.read64(3 * kPageSize), 0u);
    // A neighbour on an allocated page reads zero too.
    EXPECT_EQ(m.read8(kPageSize + 8), 0u);
    EXPECT_EQ(m.read8(kPageSize + 7), 0x5a);
}

TEST(Memory, Word64StraddlingPagesRoundTrips)
{
    Memory m(4 * kPageSize);
    const Addr at = 2 * kPageSize - 3;
    m.write64(at, 0x1122334455667788ull);
    EXPECT_EQ(m.read64(at), 0x1122334455667788ull);
    EXPECT_EQ(m.read8(2 * kPageSize - 1), 0x66);
    EXPECT_EQ(m.read8(2 * kPageSize), 0x55);
    // A straddling read over one written and one unwritten page.
    EXPECT_EQ(m.read64(kPageSize - 4), 0u);
    EXPECT_EQ(m.read64(2 * kPageSize - 7), 0x5566778800000000ull);
}

TEST(Memory, LastByteOfPartialPage)
{
    const std::size_t size = 3 * kPageSize + 100;
    Memory m(size);
    EXPECT_EQ(m.size(), size);
    m.write8(size - 1, 0xef);
    EXPECT_EQ(m.read8(size - 1), 0xef);
    m.write64(size - 8, 0x0102030405060708ull);
    EXPECT_EQ(m.read64(size - 8), 0x0102030405060708ull);
    EXPECT_THROW(m.read8(size), std::out_of_range);
    EXPECT_THROW(m.write64(size - 7, 0), std::out_of_range);
}

TEST(Memory, RewritingAnAllocatedPageKeepsItsOtherBytes)
{
    Memory m(2 * kPageSize);
    m.write64(16, 0xaabbccddeeff0011ull);
    m.write8(16, 0x22);
    m.write8(kPageSize - 1, 0x33);
    EXPECT_EQ(m.read64(16), 0xaabbccddeeff0022ull);
    EXPECT_EQ(m.read8(kPageSize - 1), 0x33);
}

TEST(PageTable, IdentityMapRange)
{
    PageTable pt;
    pt.mapRange(0x10000, 0x3000, PageOwner::User, true, true);
    const Translation t =
        pt.translate(0x11234, AccessType::Read, Privilege::User);
    EXPECT_EQ(t.fault, FaultKind::None);
    EXPECT_TRUE(t.paddrValid);
    EXPECT_EQ(t.paddr, 0x11234u);
}

TEST(PageTable, UnmappedFaults)
{
    PageTable pt;
    const Translation t =
        pt.translate(0x5000, AccessType::Read, Privilege::User);
    EXPECT_EQ(t.fault, FaultKind::NotMapped);
    EXPECT_FALSE(t.paddrValid);
}

TEST(PageTable, UnmapRemovesMapping)
{
    PageTable pt;
    pt.mapRange(0x10000, 0x1000, PageOwner::Kernel, false, true);
    pt.unmap(0x10000);
    EXPECT_EQ(pt.translate(0x10000, AccessType::Read,
                           Privilege::Kernel)
                  .fault,
              FaultKind::NotMapped);
}

TEST(PageTable, KernelPageBlocksUser)
{
    PageTable pt;
    pt.mapRange(0x20000, 0x1000, PageOwner::Kernel, false, true);
    EXPECT_EQ(pt.translate(0x20000, AccessType::Read,
                           Privilege::User)
                  .fault,
              FaultKind::Privilege);
    EXPECT_EQ(pt.translate(0x20000, AccessType::Read,
                           Privilege::Kernel)
                  .fault,
              FaultKind::None);
}

TEST(PageTable, FaultingTranslationExposesPaddr)
{
    // Critical for the Meltdown/Foreshadow model: the physical
    // address bits are available even when the access faults.
    PageTable pt;
    pt.mapRange(0x20000, 0x1000, PageOwner::Kernel, false, true);
    const Translation t =
        pt.translate(0x20040, AccessType::Read, Privilege::User);
    EXPECT_EQ(t.fault, FaultKind::Privilege);
    EXPECT_TRUE(t.paddrValid);
    EXPECT_EQ(t.paddr, 0x20040u);
}

TEST(PageTable, NotPresentBeforePrivilege)
{
    // The terminal fault (not-present) aborts the walk before the
    // privilege check: this ordering is what Foreshadow exploits.
    PageTable pt;
    pt.mapRange(0x30000, 0x1000, PageOwner::Kernel, false, true);
    pt.setPresent(0x30000, false);
    const Translation t =
        pt.translate(0x30000, AccessType::Read, Privilege::User);
    EXPECT_EQ(t.fault, FaultKind::NotPresent);
    EXPECT_TRUE(t.paddrValid);
}

TEST(PageTable, ReservedBitFaults)
{
    PageTable pt;
    pt.mapRange(0x30000, 0x1000, PageOwner::User, true, true);
    pt.setReservedBit(0x30000, true);
    EXPECT_EQ(pt.translate(0x30000, AccessType::Read,
                           Privilege::Kernel)
                  .fault,
              FaultKind::ReservedBit);
}

TEST(PageTable, WriteProtect)
{
    PageTable pt;
    pt.mapRange(0x40000, 0x1000, PageOwner::User, true,
                /*writable=*/false);
    EXPECT_EQ(pt.translate(0x40000, AccessType::Read,
                           Privilege::User)
                  .fault,
              FaultKind::None);
    EXPECT_EQ(pt.translate(0x40000, AccessType::Write,
                           Privilege::User)
                  .fault,
              FaultKind::WriteProtect);
}

TEST(PageTable, EnclavePagesRequireEnclaveMode)
{
    PageTable pt;
    pt.mapRange(0x50000, 0x1000, PageOwner::Enclave, false, true);
    EXPECT_EQ(pt.translate(0x50000, AccessType::Read,
                           Privilege::Kernel, false)
                  .fault,
              FaultKind::Privilege);
    EXPECT_EQ(pt.translate(0x50000, AccessType::Read,
                           Privilege::User, true)
                  .fault,
              FaultKind::None);
}

TEST(PageTable, VmmPagesRequireVmmPrivilege)
{
    PageTable pt;
    pt.mapRange(0x60000, 0x1000, PageOwner::Vmm, false, true);
    EXPECT_EQ(pt.translate(0x60000, AccessType::Read,
                           Privilege::Kernel)
                  .fault,
              FaultKind::Privilege);
    EXPECT_EQ(pt.translate(0x60000, AccessType::Read,
                           Privilege::Vmm)
                  .fault,
              FaultKind::None);
}

TEST(PageTable, SetPresentOnUnmappedThrows)
{
    PageTable pt;
    EXPECT_THROW(pt.setPresent(0x1000, false),
                 std::invalid_argument);
}

TEST(PageTable, EveryMutatorBumpsTheVersionAndNothingElseDoes)
{
    // FlushReloadChannel keeps its slots' translations until the
    // version moves, so no PTE may change without a bump.
    PageTable pt;
    std::uint64_t seen = pt.version();
    const auto bumped = [&pt, &seen] {
        const bool moved = pt.version() > seen;
        seen = pt.version();
        return moved;
    };
    const Addr high = PageTable::kDenseVpns * kPageSize; // side map
    pt.map(0x1000, Pte{});
    EXPECT_TRUE(bumped());
    pt.map(high, Pte{});
    EXPECT_TRUE(bumped());
    pt.mapRange(0x10000, 0x3000, PageOwner::User, true, true);
    EXPECT_TRUE(bumped());
    pt.setPresent(0x10000, false);
    EXPECT_TRUE(bumped());
    pt.setReservedBit(high, true);
    EXPECT_TRUE(bumped());
    pt.unmap(0x12000);
    EXPECT_TRUE(bumped());
    pt.unmap(high);
    EXPECT_TRUE(bumped());

    // Reads, a refused edit and copying leave it alone.
    EXPECT_NE(pt.lookup(0x11000), nullptr);
    pt.translate(0x10000, AccessType::Read, Privilege::User);
    EXPECT_THROW(pt.setReservedBit(0x90000, true),
                 std::invalid_argument);
    const PageTable copy = pt;
    EXPECT_FALSE(bumped());
    EXPECT_EQ(copy.version(), pt.version());
    // Assignment would replace every PTE without a bump.
    static_assert(!std::is_copy_assignable_v<PageTable>);
}

TEST(PageTable, VersionIsAStampUniqueInTheProcess)
{
    // Flush+Reload receivers share what they read from a table with
    // every table of the same stamp, so two tables given different
    // edits must never read one stamp, even after as many edits.
    PageTable user, kernel;
    EXPECT_EQ(user.version(), kernel.version()); // both empty
    user.mapRange(0x10000, kPageSize, PageOwner::User, true, true);
    kernel.mapRange(0x10000, kPageSize, PageOwner::Kernel, false, true);
    EXPECT_NE(user.version(), kernel.version());

    // A copy keeps its source's stamp until its own next edit.
    PageTable copy = user;
    EXPECT_EQ(copy.version(), user.version());
    copy.setPresent(0x10000, true);
    EXPECT_NE(copy.version(), user.version());
    EXPECT_NE(copy.version(), kernel.version());
}

TEST(PageTable, TheSameEditOnCopiesOfOneTableGivesOneStamp)
{
    // A stamp names a table's edits: Flush+Reload receivers share a
    // preparation between every cell that edits the layout the same
    // way (Meltdown under KPTI, Foreshadow, LVI).
    PageTable layout;
    layout.mapRange(0x10000, 4 * kPageSize, PageOwner::User, true, true);
    PageTable a = layout, b = layout;
    a.setPresent(0x11000, false);
    b.setPresent(0x11000, false);
    EXPECT_EQ(a.version(), b.version());
    EXPECT_GT(a.version(), layout.version());
    PageTable rebuilt;
    rebuilt.mapRange(0x10000, 4 * kPageSize, PageOwner::User, true, true);
    EXPECT_EQ(rebuilt.version(), layout.version());

    // Another mutator, page, value or PTE field is another edit.
    const auto edited = [&layout](auto edit) {
        PageTable t = layout;
        edit(t);
        return t.version();
    };
    const auto mapped = [&edited](Pte pte) {
        return edited([pte](PageTable &t) { t.map(0x11000, pte); });
    };
    const auto ranged = [&edited](Addr length, PageOwner owner,
                                  bool user, bool writable) {
        return edited([=](PageTable &t) {
            t.mapRange(0x11000, length, owner, user, writable);
        });
    };
    Pte frame, absent, readOnly, kernelOnly, reserved, enclave;
    frame.physPage = 7;
    absent.present = false;
    readOnly.writable = false;
    kernelOnly.userAccessible = false;
    reserved.reservedBit = true;
    enclave.owner = PageOwner::Enclave;
    const std::vector<std::uint64_t> stamps = {
        layout.version(),
        a.version(),
        edited([](PageTable &t) { t.setPresent(0x12000, false); }),
        edited([](PageTable &t) { t.setPresent(0x11000, true); }),
        edited([](PageTable &t) { t.setReservedBit(0x11000, false); }),
        edited([](PageTable &t) { t.unmap(0x11000); }),
        mapped(Pte{}),
        mapped(frame),
        mapped(absent),
        mapped(readOnly),
        mapped(kernelOnly),
        mapped(reserved),
        mapped(enclave),
        ranged(kPageSize, PageOwner::User, true, true),
        ranged(2 * kPageSize, PageOwner::User, true, true),
        ranged(kPageSize, PageOwner::Kernel, true, true),
        ranged(kPageSize, PageOwner::User, false, true),
        ranged(kPageSize, PageOwner::User, true, false),
    };
    for (std::size_t i = 0; i < stamps.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(stamps[i], stamps[j]) << "edits " << i << ", " << j;
    // The same edit from another stamp is another stamp too.
    PageTable c = a;
    c.setPresent(0x12000, false);
    EXPECT_NE(c.version(), stamps[2]);
}

TEST(PageTable, FaultKindNames)
{
    EXPECT_STREQ(faultKindName(FaultKind::None), "none");
    EXPECT_STREQ(faultKindName(FaultKind::NotPresent),
                 "not-present");
    EXPECT_STREQ(faultKindName(FaultKind::Privilege), "privilege");
    EXPECT_STREQ(faultKindName(FaultKind::FpuNotOwned),
                 "fpu-not-owned");
}

TEST(PageTable, LookupReturnsPte)
{
    PageTable pt;
    pt.mapRange(0x70000, 0x1000, PageOwner::User, true, true);
    const Pte *pte = pt.lookup(0x70abc);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->physPage, 0x70000u / kPageSize);
    EXPECT_EQ(pt.lookup(0x90000), nullptr);
}

/**
 * Reference table with the pre-flat storage — a VPN-keyed hash map —
 * and translate() semantics the flat PageTable must reproduce
 * exactly.  The fuzz below drives both through the same random op
 * sequence, including VPNs past kDenseVpns (the overflow side map).
 */
struct ReferencePageTable
{
    std::unordered_map<Addr, Pte> pages;

    void map(Addr vaddr, Pte pte) { pages[vaddr / kPageSize] = pte; }
    void unmap(Addr vaddr) { pages.erase(vaddr / kPageSize); }

    void
    setPresent(Addr vaddr, bool present)
    {
        const auto it = pages.find(vaddr / kPageSize);
        if (it != pages.end())
            it->second.present = present;
    }

    void
    setReservedBit(Addr vaddr, bool reserved)
    {
        const auto it = pages.find(vaddr / kPageSize);
        if (it != pages.end())
            it->second.reservedBit = reserved;
    }

    Translation
    translate(Addr vaddr, AccessType type, Privilege privilege,
              bool enclave_mode) const
    {
        Translation t;
        const auto it = pages.find(vaddr / kPageSize);
        if (it == pages.end()) {
            t.fault = FaultKind::NotMapped;
            return t;
        }
        const Pte &pte = it->second;
        t.paddr = pte.physPage * kPageSize + (vaddr % kPageSize);
        t.paddrValid = true;
        if (!pte.present) {
            t.fault = FaultKind::NotPresent;
            return t;
        }
        if (pte.reservedBit) {
            t.fault = FaultKind::ReservedBit;
            return t;
        }
        switch (pte.owner) {
          case PageOwner::User:
            break;
          case PageOwner::Kernel:
            if (privilege == Privilege::User) {
                t.fault = FaultKind::Privilege;
                return t;
            }
            break;
          case PageOwner::Enclave:
            if (!enclave_mode) {
                t.fault = FaultKind::Privilege;
                return t;
            }
            break;
          case PageOwner::Vmm:
            if (privilege != Privilege::Vmm) {
                t.fault = FaultKind::Privilege;
                return t;
            }
            break;
        }
        const bool enclave_access =
            enclave_mode && pte.owner == PageOwner::Enclave;
        if (!pte.userAccessible && privilege == Privilege::User &&
            !enclave_access) {
            t.fault = FaultKind::Privilege;
            return t;
        }
        if (type == AccessType::Write && !pte.writable) {
            t.fault = FaultKind::WriteProtect;
            return t;
        }
        return t;
    }
};

TEST(PageTable, TranslateParityFuzzAgainstMapReference)
{
    PageTable flat;
    ReferencePageTable reference;

    // Deterministic LCG; VPNs straddle the dense/overflow boundary.
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };
    const auto randomVpn = [&next] {
        const std::uint64_t r = next();
        // Mostly dense VPNs, ~1/8 in the overflow region.
        return (r % 8 == 0)
                   ? PageTable::kDenseVpns + (r % 512)
                   : r % 1024;
    };

    std::vector<Addr> touched;
    for (int op = 0; op < 4000; ++op) {
        const Addr vaddr = randomVpn() * kPageSize + (next() % kPageSize);
        touched.push_back(vaddr);
        switch (next() % 5) {
          case 0: {
            Pte pte;
            pte.physPage = next() % (1u << 20);
            pte.present = next() % 4 != 0;
            pte.writable = next() % 2 == 0;
            pte.userAccessible = next() % 3 != 0;
            pte.reservedBit = next() % 8 == 0;
            pte.owner = static_cast<PageOwner>(next() % 4);
            flat.map(vaddr, pte);
            reference.map(vaddr, pte);
            break;
          }
          case 1:
            flat.unmap(vaddr);
            reference.unmap(vaddr);
            break;
          case 2: {
            // setPresent throws on unmapped pages by contract.
            if (flat.lookup(vaddr) == nullptr)
                break;
            const bool present = next() % 2 == 0;
            flat.setPresent(vaddr, present);
            reference.setPresent(vaddr, present);
            break;
          }
          case 3: {
            if (flat.lookup(vaddr) == nullptr)
                break;
            const bool reserved = next() % 2 == 0;
            flat.setReservedBit(vaddr, reserved);
            reference.setReservedBit(vaddr, reserved);
            break;
          }
          case 4: {
            const Addr base = (vaddr / kPageSize) * kPageSize;
            const Addr length = (1 + next() % 8) * kPageSize;
            const auto owner = static_cast<PageOwner>(next() % 4);
            const bool user = next() % 2 == 0;
            const bool writable = next() % 2 == 0;
            flat.mapRange(base, length, owner, user, writable);
            for (Addr va = base; va < base + length;
                 va += kPageSize) {
                Pte pte;
                pte.physPage = va / kPageSize;
                pte.owner = owner;
                pte.userAccessible = user;
                pte.writable = writable;
                reference.map(va, pte);
                touched.push_back(va);
            }
            break;
          }
        }
    }

    // Every touched page (plus a never-touched one) must translate
    // identically for every access type / privilege / enclave-mode
    // combination, faults included.
    touched.push_back(0x3f000000);
    for (const Addr vaddr : touched) {
        for (const auto type : {AccessType::Read, AccessType::Write,
                                AccessType::Execute}) {
            for (const auto priv :
                 {Privilege::User, Privilege::Kernel,
                  Privilege::Vmm}) {
                for (const bool enclave : {false, true}) {
                    const Translation a =
                        flat.translate(vaddr, type, priv, enclave);
                    const Translation b = reference.translate(
                        vaddr, type, priv, enclave);
                    ASSERT_EQ(a.fault, b.fault)
                        << "vaddr=" << vaddr;
                    ASSERT_EQ(a.paddrValid, b.paddrValid)
                        << "vaddr=" << vaddr;
                    ASSERT_EQ(a.paddr, b.paddr)
                        << "vaddr=" << vaddr;
                }
            }
        }
    }
}

} // namespace
