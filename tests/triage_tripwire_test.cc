/**
 * @file
 * The triage backend's soundness tripwire, in its own binary so the
 * attack it registers joins no other suite's catalog: when decided
 * verdicts disagree inside a replication class, every member is
 * simulated and none is replicated.
 */

#include <gtest/gtest.h>

#include "attacks/runner.hh"
#include "attacks/spectre.hh"
#include "campaign/campaign.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;

TEST(TriageTripwire, ConflictingVerdictsSimulateEveryMember)
{
    // A deliberately unsound canonicalization: Spectre v1's runner
    // reads softwareLfence, yet this hook folds it away, so the none
    // and lfence cells share a class.  The model hook tells them
    // apart (Leak without the fence, Blocked with it), and that
    // conflict must make triage run both cells.
    core::AttackDescriptor d;
    d.name = "Triage Tripwire Probe";
    d.execute = attacks::statsCollectingExecute(attacks::runSpectreV1);
    d.canonicalOptions = [](const AttackOptions &options) {
        AttackOptions canonical = options;
        canonical.softwareLfence = false;
        return canonical;
    };
    d.modelVerdict = [](const CpuConfig &, const AttackOptions &options) {
        core::ModelJudgement j;
        j.verdict = options.softwareLfence ? core::ModelVerdict::Blocked
                                           : core::ModelVerdict::Leak;
        j.evidence = "tripwire probe";
        return j;
    };
    core::ScenarioCatalog::instance().registerAttack(std::move(d));

    ScenarioSpec spec;
    spec.attackNames = {"Triage Tripwire Probe"};
    spec.mitigations = {*SoftwareMitigation::byName("none"),
                        *SoftwareMitigation::byName("lfence")};

    CampaignEngine::Options opts;
    opts.workers = 1;
    const CampaignReport sim = CampaignEngine(opts).run(spec);
    opts.backend = verdict::VerdictBackend::Triage;
    const CampaignReport triage = CampaignEngine(opts).run(spec);

    EXPECT_EQ(triage.uniqueCount, 2u);
    EXPECT_EQ(triage.modelDecided, 2u);
    EXPECT_EQ(triage.executedCount, 2u);
    EXPECT_EQ(triage.replicatedCells, 0u);
    ASSERT_EQ(sim.outcomes.size(), 2u);
    ASSERT_EQ(triage.outcomes.size(), 2u);
    // The fence really changes the run, so a replica would be wrong.
    EXPECT_NE(sim.outcomes[0].result.leaked,
              sim.outcomes[1].result.leaked);
    for (std::size_t i = 0; i < sim.outcomes.size(); ++i) {
        EXPECT_EQ(triage.outcomes[i].result, sim.outcomes[i].result);
        EXPECT_EQ(triage.outcomes[i].stats, sim.outcomes[i].stats);
    }
}

} // namespace
