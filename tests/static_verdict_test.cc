/**
 * @file
 * Tests for the static verdict backend (src/verdict/static_verdict):
 *
 *  - baseline cells judge Leak from the Fig. 9 analyzer with the
 *    program-level rationale set;
 *  - software rewrites (lfence, address masking) flip bounds-family
 *    cells to Blocked and name the rewrite in the evidence line;
 *  - hardware defense knobs and out-of-program mitigations (KPTI,
 *    RSB stuffing, L1 flush) yield Undecided — a program analyzer
 *    cannot see the core;
 *  - the catalog dispatch (judgeScenarioStatic) and the no-program
 *    fallback;
 *  - the fence-harden / mask-harden catalog names.
 */

#include <gtest/gtest.h>

#include "core/catalog.hh"
#include "verdict/static_verdict.hh"

namespace
{

using namespace specsec;
using core::ModelVerdict;

const core::AttackDescriptor &
attack(const std::string &name)
{
    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(name);
    EXPECT_NE(d, nullptr) << name;
    return *d;
}

TEST(StaticVerdict, BaselineSpectreV1Leaks)
{
    const core::ModelJudgement j = verdict::staticJudgement(
        attack("spectre-v1"), uarch::CpuConfig{},
        attacks::AttackOptions{});
    EXPECT_EQ(j.verdict, ModelVerdict::Leak);
    EXPECT_NE(j.evidence.find("missing security dependencies"),
              std::string::npos)
        << j.evidence;
    EXPECT_EQ(j.evidence.find("after"), std::string::npos)
        << j.evidence;
    EXPECT_FALSE(j.rationale.empty());
}

TEST(StaticVerdict, LfenceRewriteBlocksBoundsFamily)
{
    attacks::AttackOptions options;
    options.softwareLfence = true;
    for (const char *name : {"spectre-v1", "spectre-v1.1"}) {
        const core::ModelJudgement j = verdict::staticJudgement(
            attack(name), uarch::CpuConfig{}, options);
        EXPECT_EQ(j.verdict, ModelVerdict::Blocked) << name;
        EXPECT_EQ(j.evidence, "lfence-after-branch rewrite (1 fences) "
                              "leaves no exploitable flow (0 residual "
                              "races)")
            << name;
    }
}

TEST(StaticVerdict, MaskRewriteBlocksSpectreV1)
{
    attacks::AttackOptions options;
    options.addressMasking = true;
    const core::ModelJudgement j = verdict::staticJudgement(
        attack("spectre-v1"), uarch::CpuConfig{}, options);
    EXPECT_EQ(j.verdict, ModelVerdict::Blocked);
    EXPECT_EQ(j.evidence, "array_index_nospec index clamp leaves no "
                          "exploitable flow (0 residual races)");
}

TEST(StaticVerdict, HardwareDefenseIsUndecided)
{
    uarch::CpuConfig config;
    config.defense.fenceSpeculativeLoads = true;
    const core::ModelJudgement j = verdict::staticJudgement(
        attack("spectre-v1"), config, attacks::AttackOptions{});
    EXPECT_EQ(j.verdict, ModelVerdict::Undecided);
}

TEST(StaticVerdict, OutOfProgramMitigationIsUndecided)
{
    attacks::AttackOptions options;
    options.kpti = true;
    const core::ModelJudgement j = verdict::staticJudgement(
        attack("meltdown"), uarch::CpuConfig{}, options);
    EXPECT_EQ(j.verdict, ModelVerdict::Undecided);
}

TEST(StaticVerdict, OutOfProgramGateNamesTheFirstSetToggleInKeyOrder)
{
    // Without a canonicalOptions hook every toggle reaches the
    // gates; of two set out-of-program mitigations the evidence
    // names the first in scenario-key order.
    core::AttackDescriptor meltdown = attack("meltdown");
    meltdown.canonicalOptions = nullptr;
    attacks::AttackOptions options;
    options.kpti = true;
    options.flushL1OnExit = true;
    const core::ModelJudgement j = verdict::staticJudgement(
        meltdown, uarch::CpuConfig{}, options);
    EXPECT_EQ(j.verdict, ModelVerdict::Undecided);
    EXPECT_EQ(j.evidence,
              "mitigation 'flushL1OnExit' acts outside the program "
              "(page tables / RSB / L1), which the analyzer does not "
              "model");
}

TEST(StaticVerdict, CatalogDispatchMatchesDescriptorPath)
{
    const core::ModelJudgement direct =
        verdict::staticJudgement(attack("spectre-v1"),
                                 uarch::CpuConfig{},
                                 attacks::AttackOptions{});
    const core::ModelJudgement routed =
        verdict::judgeScenarioStatic(core::AttackVariant::SpectreV1,
                                     uarch::CpuConfig{},
                                     attacks::AttackOptions{});
    EXPECT_EQ(routed.verdict, direct.verdict);
    EXPECT_EQ(routed.evidence, direct.evidence);
}

TEST(StaticVerdict, NoStaticProgramIsUndecided)
{
    // Spoiler exposes no static program; the backend must defer to
    // the simulator instead of guessing.
    const core::ModelJudgement j =
        verdict::judgeScenarioStatic(core::AttackVariant::Spoiler,
                                     uarch::CpuConfig{},
                                     attacks::AttackOptions{});
    EXPECT_EQ(j.verdict, ModelVerdict::Undecided);
}

TEST(StaticVerdict, HardenedMitigationsAreCataloged)
{
    // The hardened mitigations ride the catalog so sweeps and the
    // CLI's --mitigations resolve them by name.
    for (const char *name : {"fence-harden", "mask-harden"}) {
        EXPECT_NE(core::ScenarioCatalog::instance().findMitigation(name),
                  nullptr)
            << name;
    }
}

} // namespace
