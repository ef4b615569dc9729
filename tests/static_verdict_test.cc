/**
 * @file
 * Tests for the static verdict backend (src/verdict/static_verdict):
 *
 *  - baseline cells judge Leak from the Fig. 9 analyzer with the
 *    program-level rationale set;
 *  - software rewrites (lfence, address masking) flip bounds-family
 *    cells to Blocked and report their overhead;
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
    const verdict::StaticJudgement j = verdict::staticJudgement(
        attack("spectre-v1"), uarch::CpuConfig{},
        attacks::AttackOptions{});
    EXPECT_EQ(j.judgement.verdict, ModelVerdict::Leak);
    EXPECT_NE(j.judgement.evidence.find(
                  "missing security dependencies"),
              std::string::npos)
        << j.judgement.evidence;
    EXPECT_FALSE(j.judgement.rationale.empty());
    EXPECT_EQ(j.fencesInserted, 0u);
    EXPECT_EQ(j.masksInserted, 0u);
}

TEST(StaticVerdict, LfenceRewriteBlocksBoundsFamily)
{
    attacks::AttackOptions options;
    options.softwareLfence = true;
    for (const char *name : {"spectre-v1", "spectre-v1.1"}) {
        const verdict::StaticJudgement j = verdict::staticJudgement(
            attack(name), uarch::CpuConfig{}, options);
        EXPECT_EQ(j.judgement.verdict, ModelVerdict::Blocked)
            << name;
        EXPECT_GE(j.fencesInserted, 1u) << name;
        EXPECT_GE(j.extraInstructions, 1u) << name;
    }
}

TEST(StaticVerdict, MaskRewriteBlocksSpectreV1)
{
    attacks::AttackOptions options;
    options.addressMasking = true;
    const verdict::StaticJudgement j = verdict::staticJudgement(
        attack("spectre-v1"), uarch::CpuConfig{}, options);
    EXPECT_EQ(j.judgement.verdict, ModelVerdict::Blocked);
    EXPECT_GE(j.masksInserted, 1u);
}

TEST(StaticVerdict, HardwareDefenseIsUndecided)
{
    uarch::CpuConfig config;
    config.defense.fenceSpeculativeLoads = true;
    const verdict::StaticJudgement j = verdict::staticJudgement(
        attack("spectre-v1"), config, attacks::AttackOptions{});
    EXPECT_EQ(j.judgement.verdict, ModelVerdict::Undecided);
}

TEST(StaticVerdict, OutOfProgramMitigationIsUndecided)
{
    attacks::AttackOptions options;
    options.kpti = true;
    const verdict::StaticJudgement j = verdict::staticJudgement(
        attack("meltdown"), uarch::CpuConfig{}, options);
    EXPECT_EQ(j.judgement.verdict, ModelVerdict::Undecided);
}

TEST(StaticVerdict, CatalogDispatchMatchesDescriptorPath)
{
    const verdict::StaticJudgement direct =
        verdict::staticJudgement(attack("spectre-v1"),
                                 uarch::CpuConfig{},
                                 attacks::AttackOptions{});
    const verdict::StaticJudgement routed =
        verdict::judgeScenarioStatic(core::AttackVariant::SpectreV1,
                                     uarch::CpuConfig{},
                                     attacks::AttackOptions{});
    EXPECT_EQ(routed.judgement.verdict, direct.judgement.verdict);
    EXPECT_EQ(routed.judgement.evidence, direct.judgement.evidence);
}

TEST(StaticVerdict, NoStaticProgramIsUndecided)
{
    // Spoiler exposes no static program; the backend must defer to
    // the simulator instead of guessing.
    const verdict::StaticJudgement j =
        verdict::judgeScenarioStatic(core::AttackVariant::Spoiler,
                                     uarch::CpuConfig{},
                                     attacks::AttackOptions{});
    EXPECT_EQ(j.judgement.verdict, ModelVerdict::Undecided);
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
