/**
 * @file
 * Tests for the snapshot/fork scenario path (attacks/snapshot.hh):
 * the dirty-page reset primitive on Memory, isolation between live
 * and pooled arenas, and the acceptance bar for the whole
 * subsystem — every golden spec produces byte-identical timing-free
 * exports through the fork and rebuild paths, at every worker
 * count.
 */

#include <gtest/gtest.h>

#include "attacks/attack_kit.hh"
#include "attacks/snapshot.hh"
#include "campaign/campaign.hh"
#include "regress/specs.hh"
#include "tool/stream_export.hh"
#include "uarch/memory.hh"

namespace
{

using namespace specsec;
using attacks::Layout;
using attacks::Scenario;
using attacks::ScenarioBuildMode;
using attacks::ScenarioBuildModeGuard;
using uarch::kPageSize;

TEST(Snapshot, MemoryRezeroRestoresConstructionImage)
{
    uarch::Memory mem(16 * kPageSize);
    EXPECT_EQ(mem.dirtyPageCount(), 0u);

    mem.write8(5, 0xab);
    EXPECT_EQ(mem.dirtyPageCount(), 1u);

    // A straddling write64 dirties both touched pages.
    mem.write64(3 * kPageSize - 4, 0x1122334455667788ull);
    EXPECT_EQ(mem.dirtyPageCount(), 3u);

    // Rewriting a dirty page must not double-count.
    mem.write8(6, 0xcd);
    EXPECT_EQ(mem.dirtyPageCount(), 3u);

    // The very last byte lands in the final (possibly partial
    // bitmap word) page.
    mem.write8(16 * kPageSize - 1, 0xef);
    EXPECT_EQ(mem.dirtyPageCount(), 4u);

    mem.rezeroDirtyPages();
    EXPECT_EQ(mem.dirtyPageCount(), 0u);
    EXPECT_EQ(mem.read8(5), 0u);
    EXPECT_EQ(mem.read64(3 * kPageSize - 4), 0u);
    EXPECT_EQ(mem.read8(16 * kPageSize - 1), 0u);

    // The tracker keeps working after a reset.
    mem.write8(0, 1);
    EXPECT_EQ(mem.dirtyPageCount(), 1u);
}

TEST(Snapshot, ForkedScenariosAreIsolatedAndResetPristine)
{
    const ScenarioBuildModeGuard fork(ScenarioBuildMode::Fork);
    const uarch::CpuConfig config;

    // Two live scenarios hold distinct arenas: mutating one's
    // memory and page table must not leak into its sibling.
    {
        Scenario a(config);
        Scenario b(config);
        a.plantBytes(Layout::kUserSecret, {1, 2, 3, 4});
        a.pageTable().setPresent(Layout::kEnclaveData, false);
        a.pageTable().unmap(Layout::kKernelData);

        const std::vector<std::uint8_t> zeros(4, 0);
        EXPECT_EQ(b.readBytes(Layout::kUserSecret, 4), zeros);
        const uarch::Pte *enclave =
            b.pageTable().lookup(Layout::kEnclaveData);
        ASSERT_NE(enclave, nullptr);
        EXPECT_TRUE(enclave->present);
        EXPECT_NE(b.pageTable().lookup(Layout::kKernelData),
                  nullptr);
    }

    // Both dirtied arenas were pooled on destruction.  The next
    // scenario forks one of them and must observe the pristine
    // snapshot: zero memory, no dirty pages, baseline page table
    // (mapped kernel page, present enclave page, the read-only
    // page still read-only).
    Scenario c(config);
    EXPECT_EQ(c.mem().dirtyPageCount(), 0u);
    const std::vector<std::uint8_t> zeros(4, 0);
    EXPECT_EQ(c.readBytes(Layout::kUserSecret, 4), zeros);
    const uarch::Pte *kernel =
        c.pageTable().lookup(Layout::kKernelData);
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->owner, uarch::PageOwner::Kernel);
    const uarch::Pte *enclave =
        c.pageTable().lookup(Layout::kEnclaveData);
    ASSERT_NE(enclave, nullptr);
    EXPECT_TRUE(enclave->present);
    const uarch::Pte *ro =
        c.pageTable().lookup(Layout::kReadOnlyPage);
    ASSERT_NE(ro, nullptr);
    EXPECT_FALSE(ro->writable);
}

TEST(Snapshot, ForkPathIsExercisedUnderForkMode)
{
    const attacks::ScenarioForkStats before =
        attacks::scenarioForkStats();
    {
        const ScenarioBuildModeGuard fork(ScenarioBuildMode::Fork);
        const uarch::CpuConfig config;
        { Scenario first(config); } // park one arena in the pool
        { Scenario reuse(config); }
    }
    const attacks::ScenarioForkStats after =
        attacks::scenarioForkStats();
    EXPECT_GE(after.forked, before.forked + 1);

    // Rebuild mode never touches the pool.
    const std::uint64_t forkedBefore = after.forked;
    {
        const ScenarioBuildModeGuard rebuild(
            ScenarioBuildMode::Rebuild);
        const uarch::CpuConfig config;
        { Scenario fresh(config); }
    }
    EXPECT_EQ(attacks::scenarioForkStats().forked, forkedBefore);
}

TEST(Snapshot, ForkMatchesRebuildOnEveryGoldenSpec)
{
    // The acceptance bar: for every spec the golden regression
    // suite pins, the fork path's timing-free exports are
    // byte-identical to the rebuild path's, at one, two and eight
    // workers.  Any divergence here means a pooled arena leaked
    // state between cells.
    for (const regress::NamedSpec &named :
         regress::registeredSpecs()) {
        campaign::CampaignEngine::Options rebuildOpts;
        rebuildOpts.workers = 1;
        rebuildOpts.forkScenarios = false;
        const campaign::CampaignReport reference =
            campaign::CampaignEngine(rebuildOpts).run(named.spec);
        const std::string referenceJsonl =
            tool::campaignJsonl(reference, false);
        const std::string referenceMatrix =
            reference.successMatrixText();

        for (const unsigned workers : {1u, 2u, 8u}) {
            campaign::CampaignEngine::Options forkOpts;
            forkOpts.workers = workers;
            forkOpts.forkScenarios = true;
            const campaign::CampaignReport forked =
                campaign::CampaignEngine(forkOpts).run(named.spec);
            EXPECT_EQ(tool::campaignJsonl(forked, false),
                      referenceJsonl)
                << named.name << " diverged at workers="
                << workers;
            EXPECT_EQ(forked.successMatrixText(), referenceMatrix)
                << named.name << " matrix diverged at workers="
                << workers;
        }
    }
}

} // namespace
