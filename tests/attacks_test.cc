/**
 * @file
 * End-to-end attack tests on the simulator: every cataloged variant
 * leaks the planted secret on a vulnerable baseline (Flush+Reload
 * and Prime+Probe), and is stopped by its canonical defense.
 */

#include <gtest/gtest.h>

#include "attacks/attack_kit.hh"
#include "attacks/runner.hh"

namespace
{

using namespace specsec;
using namespace specsec::attacks;
using core::AttackVariant;
using core::CovertChannelKind;

std::string
variantName(const ::testing::TestParamInfo<AttackVariant> &info)
{
    std::string name = core::variantInfo(info.param).name;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

class AttackLeaks : public ::testing::TestWithParam<AttackVariant>
{
};

TEST_P(AttackLeaks, VulnerableBaselineLeaksFlushReload)
{
    const AttackResult r = runVariant(GetParam(), CpuConfig{});
    EXPECT_TRUE(r.leaked) << r.name << " accuracy " << r.accuracy;
    EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

TEST_P(AttackLeaks, VulnerableBaselineLeaksPrimeProbe)
{
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "Spoiler is a timing attack, not a cache "
                        "covert channel";
    AttackOptions opt;
    opt.channel = CovertChannelKind::PrimeProbe;
    const AttackResult r = runVariant(GetParam(), CpuConfig{}, opt);
    EXPECT_TRUE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

TEST_P(AttackLeaks, HardwareFencingBlocks)
{
    // Strategy 1 in hardware stops every variant.
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "Spoiler leaks addresses through committed "
                        "timing, not transient execution";
    CpuConfig cfg;
    cfg.defense.fenceSpeculativeLoads = true;
    const AttackResult r = runVariant(GetParam(), cfg);
    EXPECT_FALSE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

TEST_P(AttackLeaks, NdaForwardingBlockBlocks)
{
    // Strategy 2 (NDA-style no-forwarding) stops every variant.
    CpuConfig cfg;
    cfg.defense.blockSpeculativeForwarding = true;
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "not a transient-forwarding attack";
    const AttackResult r = runVariant(GetParam(), cfg);
    EXPECT_FALSE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

TEST_P(AttackLeaks, SttTaintTrackingBlocks)
{
    // Strategy 3 (STT-style tainted-transmit blocking).
    CpuConfig cfg;
    cfg.defense.blockTaintedTransmit = true;
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "not a transient-forwarding attack";
    const AttackResult r = runVariant(GetParam(), cfg);
    EXPECT_FALSE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

TEST_P(AttackLeaks, InvisibleSpeculationBlocks)
{
    CpuConfig cfg;
    cfg.defense.invisibleSpeculation = true;
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "not a cache-channel attack";
    const AttackResult r = runVariant(GetParam(), cfg);
    EXPECT_FALSE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

TEST_P(AttackLeaks, CleanupSpecBlocks)
{
    CpuConfig cfg;
    cfg.defense.cleanupSpec = true;
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "not a cache-channel attack";
    const AttackResult r = runVariant(GetParam(), cfg);
    EXPECT_FALSE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

TEST_P(AttackLeaks, ConditionalSpeculationBlocks)
{
    CpuConfig cfg;
    cfg.defense.conditionalSpeculation = true;
    if (GetParam() == AttackVariant::Spoiler)
        GTEST_SKIP() << "not a cache-channel attack";
    const AttackResult r = runVariant(GetParam(), cfg);
    EXPECT_FALSE(r.leaked) << r.name << " accuracy " << r.accuracy;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, AttackLeaks,
                         ::testing::ValuesIn(core::allVariants()),
                         variantName);

TEST(AttackSpecific, SpectreV1NeedsDelayedAuthorization)
{
    // Section III step 2 is necessary: when the bound is cached the
    // branch resolves before the transient chain can send, and the
    // attack fails with no defense at all.
    AttackOptions opt;
    opt.delayAuthorization = false;
    const AttackResult r = runSpectreV1(CpuConfig{}, opt);
    EXPECT_FALSE(r.leaked) << "accuracy " << r.accuracy;
}

TEST(AttackSpecific, SpectreV1RecoversFullSecret)
{
    AttackOptions opt;
    opt.secretLen = 16;
    const AttackResult r = runSpectreV1(CpuConfig{}, opt);
    ASSERT_EQ(r.recovered.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(r.recovered[i], static_cast<int>(r.expected[i]));
}

TEST(AttackSpecific, SpectreV1SoftwareLfenceBlocks)
{
    AttackOptions opt;
    opt.softwareLfence = true;
    EXPECT_FALSE(runSpectreV1(CpuConfig{}, opt).leaked);
    EXPECT_FALSE(runSpectreV1_1(CpuConfig{}, opt).leaked);
    EXPECT_FALSE(runSpectreV1_2(CpuConfig{}, opt).leaked);
}

TEST(AttackSpecific, SpectreV1AddressMaskingBlocks)
{
    AttackOptions opt;
    opt.addressMasking = true;
    EXPECT_FALSE(runSpectreV1(CpuConfig{}, opt).leaked);
    EXPECT_FALSE(runSpectreV1_1(CpuConfig{}, opt).leaked);
}

TEST(AttackSpecific, SpectreV2PredictorFlushBlocks)
{
    CpuConfig cfg;
    cfg.defense.flushPredictorOnContextSwitch = true;
    EXPECT_FALSE(runSpectreV2(cfg).leaked);
}

TEST(AttackSpecific, SpectreV2RetpolineBlocks)
{
    CpuConfig cfg;
    cfg.defense.noIndirectPrediction = true;
    EXPECT_FALSE(runSpectreV2(cfg).leaked);
}

TEST(AttackSpecific, SpectreV1NoBranchPredictionBlocks)
{
    CpuConfig cfg;
    cfg.defense.noBranchPrediction = true;
    EXPECT_FALSE(runSpectreV1(cfg).leaked);
}

TEST(AttackSpecific, SpectreV4SsbsBlocks)
{
    CpuConfig cfg;
    cfg.defense.safeStoreBypass = true;
    EXPECT_FALSE(runSpectreV4(cfg).leaked);
}

TEST(AttackSpecific, SpectreV4FixedSiliconBlocks)
{
    CpuConfig cfg;
    cfg.vuln.storeBypass = false;
    EXPECT_FALSE(runSpectreV4(cfg).leaked);
}

TEST(AttackSpecific, SpectreRsbStuffingBlocks)
{
    AttackOptions opt;
    opt.rsbStuffing = true;
    EXPECT_FALSE(runSpectreRsb(CpuConfig{}, opt).leaked);
}

TEST(AttackSpecific, MeltdownKptiBlocks)
{
    AttackOptions opt;
    opt.kpti = true;
    EXPECT_FALSE(runMeltdown(CpuConfig{}, opt).leaked);
}

TEST(AttackSpecific, MeltdownFixedSiliconBlocks)
{
    CpuConfig cfg;
    cfg.vuln.meltdown = false;
    EXPECT_FALSE(runMeltdown(cfg).leaked);
}

TEST(AttackSpecific, ForeshadowSurvivesMeltdownOnlyFix)
{
    // Historically accurate: post-Meltdown silicon was still
    // L1TF-vulnerable.  This is the paper's Fig. 4 insufficiency
    // argument made executable.
    CpuConfig cfg;
    cfg.vuln.meltdown = false;
    EXPECT_TRUE(runForeshadow(cfg).leaked);
    cfg.vuln.l1tf = false;
    cfg.vuln.mds = false;
    EXPECT_FALSE(runForeshadow(cfg).leaked);
}

TEST(AttackSpecific, ForeshadowL1FlushBlocks)
{
    AttackOptions opt;
    opt.flushL1OnExit = true;
    EXPECT_FALSE(runForeshadow(CpuConfig{}, opt).leaked);
    EXPECT_FALSE(runForeshadowOs(CpuConfig{}, opt).leaked);
    EXPECT_FALSE(runForeshadowVmm(CpuConfig{}, opt).leaked);
}

TEST(AttackSpecific, MdsVerwBlocks)
{
    CpuConfig cfg;
    cfg.defense.clearBuffersOnContextSwitch = true;
    EXPECT_FALSE(runRidl(cfg).leaked);
    EXPECT_FALSE(runZombieLoad(cfg).leaked);
    EXPECT_FALSE(runFallout(cfg).leaked);
    EXPECT_FALSE(runTaa(cfg).leaked);
}

TEST(AttackSpecific, TaaSurvivesMdsOnlyFix)
{
    // Cascade Lake fixed MDS but remained TAA-vulnerable.
    CpuConfig cfg;
    cfg.vuln.mds = false;
    EXPECT_TRUE(runTaa(cfg).leaked);
    EXPECT_FALSE(runRidl(cfg).leaked);
    cfg.vuln.taa = false;
    EXPECT_FALSE(runTaa(cfg).leaked);
}

TEST(AttackSpecific, LazyFpEagerSwitchBlocks)
{
    CpuConfig cfg;
    cfg.defense.eagerFpuSwitch = true;
    EXPECT_FALSE(runLazyFp(cfg).leaked);
}

TEST(AttackSpecific, MeltdownV3aMsrFixBlocks)
{
    CpuConfig cfg;
    cfg.vuln.msr = false;
    EXPECT_FALSE(runMeltdownV3a(cfg).leaked);
}

TEST(AttackSpecific, DawgBlocksCrossDomainOnly)
{
    CpuConfig cfg;
    cfg.defense.partitionedCache = true;
    // Cross-domain (attacker != victim context): blocked.
    EXPECT_FALSE(runSpectreV2(cfg).leaked);
    // Same-domain (in-process v1): DAWG does not help, exactly as
    // the paper's strategy analysis predicts for same-domain races.
    EXPECT_TRUE(runSpectreV1(cfg).leaked);
}

TEST(AttackSpecific, TransientForwardsCounted)
{
    const AttackResult r = runMeltdown(CpuConfig{});
    EXPECT_GT(r.transientForwards, 0u);
}

TEST(AttackSpecific, SpoilerRecoversAliasIndex)
{
    const AttackResult r = runSpoiler(CpuConfig{});
    EXPECT_TRUE(r.leaked);
    ASSERT_EQ(r.recovered.size(), 1u);
    EXPECT_EQ(r.recovered[0], static_cast<int>(r.expected[0]));
}

TEST(AttackSpecific, SpoilerBlockedWithoutAliasPenalties)
{
    CpuConfig cfg;
    cfg.partialAliasPenalty = 0;
    cfg.physAliasPenalty = 0;
    EXPECT_FALSE(runSpoiler(cfg).leaked);
}

TEST(Scenario, FreshScenariosAreIsolatedAndPristine)
{
    const CpuConfig config;
    const std::vector<std::uint8_t> zeros(4, 0);

    // Two live scenarios share no memory and no PTEs: mutating one
    // must not leak into its sibling.
    {
        Scenario a(config);
        Scenario b(config);
        a.plantBytes(Layout::kUserSecret, {1, 2, 3, 4});
        a.pageTable().setPresent(Layout::kEnclaveData, false);
        a.pageTable().unmap(Layout::kKernelData);

        EXPECT_EQ(b.readBytes(Layout::kUserSecret, 4), zeros);
        const uarch::Pte *enclave =
            b.pageTable().lookup(Layout::kEnclaveData);
        ASSERT_NE(enclave, nullptr);
        EXPECT_TRUE(enclave->present);
        EXPECT_NE(b.pageTable().lookup(Layout::kKernelData), nullptr);
    }

    // A later scenario sees the canonical layout: zero memory, the
    // kernel page mapped, the enclave page present, the read-only
    // page read-only and kUnmapped still unmapped.
    Scenario c(config);
    EXPECT_EQ(c.readBytes(Layout::kUserSecret, 4), zeros);
    const uarch::Pte *kernel = c.pageTable().lookup(Layout::kKernelData);
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->owner, uarch::PageOwner::Kernel);
    const uarch::Pte *enclave =
        c.pageTable().lookup(Layout::kEnclaveData);
    ASSERT_NE(enclave, nullptr);
    EXPECT_TRUE(enclave->present);
    const uarch::Pte *ro = c.pageTable().lookup(Layout::kReadOnlyPage);
    ASSERT_NE(ro, nullptr);
    EXPECT_FALSE(ro->writable);
    EXPECT_EQ(c.pageTable().lookup(Layout::kUnmapped), nullptr);
}

} // namespace
