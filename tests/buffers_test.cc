/**
 * @file
 * Tests for the leaky buffers: store buffer (forwarding, partial
 * aliasing, residue), line fill buffer, load port and lazy FPU.
 */

#include <gtest/gtest.h>

#include "uarch/buffers.hh"

namespace
{

using namespace specsec::uarch;

TEST(StoreBufferTest, ForwardYoungestOlderStore)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x100, 0x100);
    sb.setData(1, 0xaaaa);
    sb.allocate(2, 8);
    sb.setAddress(2, 0x100, 0x100);
    sb.setData(2, 0xbbbb);
    // Load with seq 3 sees the youngest older store (seq 2).
    EXPECT_EQ(sb.forward(3, 0x100, 8), 0xbbbbu);
    // Load with seq 2 only sees seq 1.
    EXPECT_EQ(sb.forward(2, 0x100, 8), 0xaaaau);
}

TEST(StoreBufferTest, NoForwardWithoutAddressOrData)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    EXPECT_FALSE(sb.forward(2, 0x100, 8).has_value());
    sb.setAddress(1, 0x100, 0x100);
    EXPECT_FALSE(sb.forward(2, 0x100, 8).has_value());
    sb.setData(1, 5);
    EXPECT_TRUE(sb.forward(2, 0x100, 8).has_value());
}

TEST(StoreBufferTest, ByteForwardMasks)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x100, 0x100);
    sb.setData(1, 0x1234);
    EXPECT_EQ(sb.forward(2, 0x100, 1), 0x34u);
}

TEST(StoreBufferTest, NarrowStoreDoesNotForwardWide)
{
    StoreBuffer sb;
    sb.allocate(1, 1);
    sb.setAddress(1, 0x100, 0x100);
    sb.setData(1, 0x12);
    EXPECT_FALSE(sb.forward(2, 0x100, 8).has_value());
}

TEST(StoreBufferTest, UnresolvedOlderDetection)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    EXPECT_TRUE(sb.hasUnresolvedOlder(2));
    EXPECT_FALSE(sb.hasUnresolvedOlder(1)); // not older than itself
    sb.setAddress(1, 0x100, 0x100);
    EXPECT_FALSE(sb.hasUnresolvedOlder(2));
}

TEST(StoreBufferTest, SquashRemovesYoungKeepsResidue)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x100, 0x100);
    sb.setData(1, 0xdead);
    sb.allocate(5, 8);
    sb.setAddress(5, 0x200, 0x200);
    sb.setData(5, 0xbeef);
    sb.squashAfter(1);
    EXPECT_EQ(sb.pending(), 1u);
    // Fallout: the squashed store's bits linger as residue.
    ASSERT_TRUE(sb.residue().has_value());
    EXPECT_EQ(sb.residue()->data, 0xbeefu);
    EXPECT_EQ(sb.residue()->vaddr, 0x200u);
}

TEST(StoreBufferTest, DrainOldestInOrder)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x100, 0x100);
    sb.setData(1, 7);
    sb.allocate(2, 8);
    EXPECT_FALSE(sb.drainOldest(2).has_value()); // 1 is oldest
    const auto e = sb.drainOldest(1);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->data, 7u);
    EXPECT_EQ(sb.pending(), 1u);
}

TEST(StoreBufferTest, PartialAliasDetection)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x5040, 0x15040);
    // Same low 12 bits, different address: 4KB alias.
    EXPECT_TRUE(sb.partialAliasOlder(2, 0x9040));
    EXPECT_FALSE(sb.partialAliasOlder(2, 0x9048));
    EXPECT_FALSE(sb.partialAliasOlder(2, 0x5040)); // exact match
}

TEST(StoreBufferTest, PhysAliasDetection)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x5040, 0x500040);
    // Same low 20 physical bits, different physical address.
    EXPECT_TRUE(sb.physAliasOlder(2, 0x600040));
    EXPECT_FALSE(sb.physAliasOlder(2, 0x600048));
}

TEST(StoreBufferTest, ClearResidue)
{
    StoreBuffer sb;
    sb.allocate(1, 8);
    sb.setAddress(1, 0x100, 0x100);
    sb.setData(1, 1);
    sb.clearResidue();
    EXPECT_FALSE(sb.residue().has_value());
}

TEST(LineFillBufferTest, ResidueIsMostRecentFill)
{
    LineFillBuffer lfb(2);
    EXPECT_FALSE(lfb.residue().has_value());
    lfb.recordFill(0xaa);
    lfb.recordFill(0xbb);
    EXPECT_EQ(lfb.residue(), 0xbbu);
}

TEST(LineFillBufferTest, CapacityBounded)
{
    LineFillBuffer lfb(2);
    lfb.recordFill(1);
    lfb.recordFill(2);
    lfb.recordFill(3);
    EXPECT_EQ(lfb.size(), 2u);
    EXPECT_EQ(lfb.residue(), 3u);
}

TEST(LineFillBufferTest, ClearDropsResidue)
{
    LineFillBuffer lfb(4);
    lfb.recordFill(1);
    lfb.clear();
    EXPECT_FALSE(lfb.residue().has_value());
    EXPECT_EQ(lfb.size(), 0u);
}

TEST(LineFillBufferTest, ZeroEntriesKeepNoResidue)
{
    // lfbEntries 0 is a machine a scenario key can name: its buffer
    // holds no fill, so a faulting load finds no residue in it.
    LineFillBuffer lfb(0);
    lfb.recordFill(0xaa);
    lfb.recordFill(0xbb);
    EXPECT_FALSE(lfb.residue().has_value());
    EXPECT_EQ(lfb.size(), 0u);
}

TEST(LoadPortTest, Residue)
{
    LoadPort lp;
    EXPECT_FALSE(lp.residue().has_value());
    lp.record(42);
    EXPECT_EQ(lp.residue(), 42u);
    lp.clear();
    EXPECT_FALSE(lp.residue().has_value());
}

TEST(FpuStateTest, LazySwitchLeavesStaleValues)
{
    FpuState fpu;
    fpu.write(2, 0x5ec); // victim value
    fpu.contextSwitch(1, /*eager=*/false);
    EXPECT_EQ(fpu.owner(), 0); // still owned by the old context
    EXPECT_EQ(fpu.read(2), 0x5ecu); // stale value readable (LazyFP)
}

TEST(FpuStateTest, EagerSwitchSwapsValues)
{
    FpuState fpu;
    fpu.write(2, 0x5ec);
    fpu.contextSwitch(1, /*eager=*/true);
    EXPECT_EQ(fpu.owner(), 1);
    EXPECT_EQ(fpu.read(2), 0u);
    // Switching back restores the saved registers.
    fpu.contextSwitch(0, true);
    EXPECT_EQ(fpu.read(2), 0x5ecu);
}

TEST(FpuStateTest, TakeOwnershipResolvesFault)
{
    FpuState fpu;
    fpu.write(2, 0x5ec);
    fpu.contextSwitch(1, false); // lazy
    fpu.takeOwnership(1);        // the OS handler
    EXPECT_EQ(fpu.owner(), 1);
    EXPECT_EQ(fpu.read(2), 0u); // old values saved away
    fpu.takeOwnership(0);
    EXPECT_EQ(fpu.read(2), 0x5ecu);
}

} // namespace
